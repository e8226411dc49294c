"""Per-module tracing of homyd from outside the program.

The tracer replaces each listed function at every binding callers use:
the defining module, every ``from .x import f`` copy in the other homyd
modules, and the class attribute for methods (so ``LinearMap.__matmul__``,
which looks ``compose`` up in its module, goes through the wrapper too).
Each call becomes a span (name, start, end, parent, op id) kept in flat
arrays in memory and written out once, when the run ends.  Times are
process CPU nanoseconds.

A layer's self time is its spans' time minus the time of their child
spans.  ``check_all_vectors`` gets its ``evaluate`` callback wrapped as a
child span owned by the module that defined the callback, so the
``reports`` self time is the loop overhead alone.

Counters that take work to compute (nonzero products, structure keys)
are computed after the traced call returns, inside a ``tracer`` span, so
that their cost is charged to no layer.
"""

from __future__ import annotations

import json
import os
import sys
import time
import weakref
from array import array
from collections import defaultdict

#: module -> [(metric name, attribute)]; attribute "Cls.meth" wraps a method.
TARGETS = {
    "exactlin": [
        ("compose", "compose"), ("kron", "kron"), ("invert", "invert"),
        ("LinearMap", "LinearMap.__init__"), ("apply", "LinearMap.apply"),
        ("add_scaled", "add_scaled"), ("tensor_vec", "tensor_vec"),
    ],
    "hom_algebra": [
        ("check_hom_algebra", "check_hom_algebra"), ("check_hom_coalgebra", "check_hom_coalgebra"),
        ("check_hom_bialgebra", "check_hom_bialgebra"), ("check_antipode", "check_antipode"),
        ("check_automorphism", "check_automorphism"),
        ("HopfAutomorphism", "HopfAutomorphism.__init__"),
    ],
    "yd_modules": [
        ("check_hom_module", "check_hom_module"), ("check_hom_comodule", "check_hom_comodule"),
        ("check_yd", "check_yd"), ("check_yd_alt", "check_yd_alt"), ("act_vv", "act_vv"),
        ("YDModuleData", "YDModuleData.__init__"), ("trivial_yd", "trivial_yd"),
    ],
    "t_category": [
        ("tensor_yd", "tensor_yd"), ("conjugate_yd", "conjugate_yd"), ("braiding", "braiding"),
        ("braiding_inverse", "braiding_inverse"), ("group_mul", "group_mul"),
        ("group_inv", "group_inv"), ("check_hexagons", "check_hexagons"),
        ("check_braiding_equivariance", "check_braiding_equivariance"),
        ("check_braiding_inverse", "check_braiding_inverse"),
        ("check_conjugation_invariance", "check_conjugation_invariance"),
        ("check_t_category", "check_t_category"),
    ],
    "reports": [
        ("check_all_vectors", "check_all_vectors"), ("check_matrix_equal", "check_matrix_equal"),
    ],
    "defformat": [
        ("parse_definition", "parse_definition"), ("resolve_definition", "resolve_definition"),
        ("run_checks", "run_checks"),
    ],
    "cli": [
        ("main", "main"), ("render_text_report", "render_text_report"),
        ("render_json_report", "render_json_report"), ("emit_braiding", "emit_braiding"),
        ("braiding_to_dict", "braiding_to_dict"), ("matrix_to_csv", "matrix_to_csv"),
    ],
    "h4_library": [("build_h4", "build_h4"), ("build_h4_yd_table", "build_h4_yd_table")],
}

COMPOSE_BUCKETS = ((4, "le4"), (16, "le16"), (64, "le64"), (None, "gt64"))
BUILDERS = ("tensor_yd", "conjugate_yd", "braiding", "braiding_inverse")

#: Computed counters: (metric, unit).  They repeat exactly for equal inputs.
COMPUTED = [
    ("exactlin.compose.mults", "count"), ("exactlin.compose.cells", "count"),
    ("exactlin.kron.out_entries", "count"), ("exactlin.invert.repeat_share", "ratio"),
    ("exactlin.LinearMap.entries", "count"),
    ("reports.check_all_vectors.tuples", "count"), ("reports.check_matrix_equal.cells", "count"),
    ("defformat.parse_definition.bytes", "B"), ("cli.main.bytes_out", "B"),
] + [("t_category.%s.distinct_share" % b, "ratio") for b in BUILDERS]


def metric_units():
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for module, targets in TARGETS.items():
        units["%s.self_s" % module] = "s"
        units["%s.errors" % module] = "count"
        for fname, _ in targets:
            units["%s.%s.calls" % (module, fname)] = "count"
            units["%s.%s.self_s" % (module, fname)] = "s"
    for _, bucket in COMPOSE_BUCKETS:
        units["exactlin.compose.%s.calls" % bucket] = "count"
        units["exactlin.compose.%s.self_s" % bucket] = "s"
    units.update(COMPUTED)
    return units


def _matrix_key(m):
    return hash((m.rows, m.cols, m.entries))


class Tracer:
    def __init__(self):
        self.names = []            # span name id -> "module.function[.bucket]"
        self.name_module = []      # span name id -> module
        self._ids = {}
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("q")
        self.sp_end = array("q")
        self.stack = [-1]
        self.cur_op = [0]
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self._undo = []
        self._seen = defaultdict(set)  # per-op sets for repeat / distinct counting
        self._skeys = weakref.WeakKeyDictionary()
        self._runs = {}

    # -- spans ---------------------------------------------------------

    def _name_id(self, name, module):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_module.append(module)
        return self._ids[name]

    def begin_op(self, op_id):
        self.cur_op[0] = op_id
        self._seen = defaultdict(set)

    def _span_fn(self, module):
        """run(fn, name_id, args, kwargs) for spans owned by module."""
        if module in self._runs:
            return self._runs[module]
        sp_name, sp_parent, sp_op = self.sp_name, self.sp_parent, self.sp_op
        sp_start, sp_end = self.sp_start, self.sp_end
        stack, cur_op, clock = self.stack, self.cur_op, time.process_time_ns
        errors, name_module = self.errors, self.name_module

        def run(fn, name_id, args, kwargs):
            idx = len(sp_start)
            sp_name.append(name_id)
            sp_parent.append(stack[-1])
            sp_op.append(cur_op[0])
            sp_end.append(0)
            stack.append(idx)
            sp_start.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                parent = stack[-2]
                if parent < 0 or name_module[sp_name[parent]] != module:
                    errors[module] += 1
                raise
            finally:
                sp_end[idx] = clock()
                stack.pop()

        self._runs[module] = run
        return run

    def _overhead(self, work, *args):
        """Run a counter computation inside a span no layer is charged for."""
        return self._span_fn("tracer")(work, self._name_id("tracer", "tracer"), args, {})

    # -- installation --------------------------------------------------

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "homyd" or name.startswith("homyd."))]
        for module, targets in TARGETS.items():
            mod = sys.modules["homyd." + module]
            for fname, attr in targets:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrapper(module, fname, orig))
                    continue
                orig = getattr(mod, attr)
                wrapper = self._wrapper(module, fname, orig)
                for m in mods:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            self._undo.append((m, key, orig))
                            setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def _wrapper(self, module, fname, fn):
        run = self._span_fn(module)
        name_id = self._name_id("%s.%s" % (module, fname), module)
        special = getattr(self, "_wrap_" + fname, None)
        if special is not None:
            return special(run, fn, name_id, module)

        def traced(*args, **kwargs):
            return run(fn, name_id, args, kwargs)

        return traced

    # -- functions with computed counters --------------------------------

    def _wrap_compose(self, run, fn, name_id, module):
        bucket_ids = [(limit, self._name_id("exactlin.compose.%s" % b, module))
                      for limit, b in COMPOSE_BUCKETS]
        counts = self.counts

        def mults(f, g):
            fc, gc = f.cols, g.cols
            col_nnz = [0] * fc
            for i, e in enumerate(f.entries):
                if e:
                    col_nnz[i % fc] += 1
            ge = g.entries
            total = 0
            for k in range(g.rows):
                if col_nnz[k]:
                    total += col_nnz[k] * sum(1 for e in ge[k * gc:(k + 1) * gc] if e)
            counts["exactlin.compose.mults"] += total
            counts["exactlin.compose.cells"] += f.rows * fc * gc

        def traced(f, g):
            size = max(f.rows, f.cols, g.cols)
            bid = next(i for limit, i in bucket_ids if limit is None or size <= limit)
            out = run(fn, bid, (f, g), {})
            self._overhead(mults, f, g)
            return out

        return traced

    def _wrap_kron(self, run, fn, name_id, module):
        counts = self.counts

        def traced(f, g):
            out = run(fn, name_id, (f, g), {})
            counts["exactlin.kron.out_entries"] += out.rows * out.cols
            return out

        return traced

    def _wrap_invert(self, run, fn, name_id, module):
        def seen(f):
            key = _matrix_key(f)
            keys = self._seen["invert"]
            if key in keys:
                self.counts["exactlin.invert.repeats"] += 1
            keys.add(key)

        def traced(f):
            out = run(fn, name_id, (f,), {})
            self._overhead(seen, f)
            return out

        return traced

    def _wrap_LinearMap(self, run, fn, name_id, module):
        counts = self.counts

        def traced(obj, rows, cols, entries):
            run(fn, name_id, (obj, rows, cols, entries), {})
            counts["exactlin.LinearMap.entries"] += rows * cols

        return traced

    def _structure_key(self, yd):
        key = self._skeys.get(yd)
        if key is None:
            key = hash((yd.dim, yd.module.action.entries, yd.comodule.coaction.entries,
                        yd.mu.entries, yd.pair_a.matrix.entries, yd.pair_b.matrix.entries))
            self._skeys[yd] = key
        return key

    def _builder(self, run, fn, name_id, fname, key_of):
        def record(args):
            self._seen[fname].add(key_of(*args))

        def traced(*args, **kwargs):
            out = run(fn, name_id, args, kwargs)
            self._overhead(record, args)
            return out

        return traced

    def _wrap_tensor_yd(self, run, fn, name_id, module):
        sk = self._structure_key
        return self._builder(run, fn, name_id, "tensor_yd", lambda m, n, *rest: (sk(m), sk(n)))

    def _wrap_conjugate_yd(self, run, fn, name_id, module):
        sk = self._structure_key
        return self._builder(run, fn, name_id, "conjugate_yd", lambda p, n, *rest: (
            _matrix_key(p.a.matrix), _matrix_key(p.b.matrix), sk(n)))

    def _wrap_braiding(self, run, fn, name_id, module):
        sk = self._structure_key
        return self._builder(run, fn, name_id, "braiding", lambda m, n: (sk(m), sk(n)))

    def _wrap_braiding_inverse(self, run, fn, name_id, module):
        sk = self._structure_key
        return self._builder(run, fn, name_id, "braiding_inverse",
                             lambda b: (sk(b.source[0]), sk(b.source[1])))

    def _wrap_check_all_vectors(self, run, fn, name_id, module):
        counts = self.counts

        def traced(report, identity, law, dims, labeler, evaluate):
            owner = evaluate.__module__.rsplit(".", 1)[-1]
            eval_id = self._name_id("%s.<evaluate>" % owner, owner)
            eval_run = self._span_fn(owner)

            def traced_evaluate(idx):
                counts["reports.check_all_vectors.tuples"] += 1
                return eval_run(evaluate, eval_id, (idx,), {})

            return run(fn, name_id, (report, identity, law, dims, labeler, traced_evaluate), {})

        return traced

    def _wrap_check_matrix_equal(self, run, fn, name_id, module):
        counts = self.counts

        def traced(report, identity, law, lhs, rhs, *args, **kwargs):
            counts["reports.check_matrix_equal.cells"] += lhs.rows * lhs.cols
            return run(fn, name_id, (report, identity, law, lhs, rhs) + args, kwargs)

        return traced

    def _wrap_parse_definition(self, run, fn, name_id, module):
        counts = self.counts

        def traced(text):
            counts["defformat.parse_definition.bytes"] += len(
                text if isinstance(text, bytes) else text.encode("utf-8"))
            return run(fn, name_id, (text,), {})

        return traced

    def end_op(self):
        """Fold the per-op distinct sets into the run's counters."""
        for fname in BUILDERS:
            self.counts["t_category.%s.distinct" % fname] += len(self._seen[fname])

    # -- results -------------------------------------------------------

    def self_times(self):
        """(calls, self ns) per span name id."""
        n = len(self.sp_start)
        starts, ends, parents, names = self.sp_start, self.sp_end, self.sp_parent, self.sp_name
        child = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_ns[nid] += ends[i] - starts[i] - child[i]
        return calls, self_ns

    def metrics(self):
        """Every per-layer metric, by name, as {"value", "unit"}."""
        calls, self_ns = self.self_times()
        by_name = {name: (calls[i], self_ns[i]) for i, name in enumerate(self.names)}
        values = {}
        module_ns = defaultdict(int)
        for i, module in enumerate(self.name_module):
            module_ns[module] += self_ns[i]
        for module, targets in TARGETS.items():
            values["%s.self_s" % module] = module_ns[module] / 1e9
            values["%s.errors" % module] = self.errors[module]
            for fname, _ in targets:
                c, ns = by_name.get("%s.%s" % (module, fname), (0, 0))
                values["%s.%s.calls" % (module, fname)] = c
                values["%s.%s.self_s" % (module, fname)] = ns / 1e9
        total_c = total_ns = 0
        for _, bucket in COMPOSE_BUCKETS:
            c, ns = by_name.get("exactlin.compose.%s" % bucket, (0, 0))
            values["exactlin.compose.%s.calls" % bucket] = c
            values["exactlin.compose.%s.self_s" % bucket] = ns / 1e9
            total_c += c
            total_ns += ns
        values["exactlin.compose.calls"] = total_c
        values["exactlin.compose.self_s"] = total_ns / 1e9
        counts = self.counts
        for name, _ in COMPUTED:
            values[name] = counts[name]
        inv = values["exactlin.invert.calls"]
        values["exactlin.invert.repeat_share"] = counts["exactlin.invert.repeats"] / inv if inv else 0.0
        for fname in BUILDERS:
            c = values["t_category.%s.calls" % fname]
            values["t_category.%s.distinct_share" % fname] = (
                counts["t_category.%s.distinct" % fname] / c if c else 0.0)
        units = metric_units()
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def write(self, directory):
        """Write every span once: a JSON index and one binary column file."""
        os.makedirs(directory, exist_ok=True)
        columns = (("name", self.sp_name), ("parent", self.sp_parent), ("op", self.sp_op),
                   ("start_ns", self.sp_start), ("end_ns", self.sp_end))
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        index = {"count": len(self.sp_start), "names": self.names, "modules": self.name_module,
                 "columns": [[name, col.typecode] for name, col in columns],
                 "byteorder": sys.byteorder}
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(index, fh)
