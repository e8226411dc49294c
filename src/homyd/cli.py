"""Command line interface.

    homyd check FILE [--suite all|algebra|coalgebra|hopf|yd|tcat]
                     [--seed N] [--report text|json]
    homyd braid FILE -m NAME -n NAME [--out csv|json]
    homyd demo h4 [--c Q] [--cp Q] [--cpp Q] [--out csv|json]

Exit codes: 0 when every identity passes, 1 when any fails, 2 on a
parse or resolution diagnostic, a FILE that cannot be read as UTF-8, or a
reader that closes stdout before the output is written.

Matrices act on column coordinate vectors, so in CSV/JSON output the
column j holds the image of the j-th domain basis vector; the table
convention that lists one source vector per row is the transpose of what
is emitted here (the demo prints a reminder on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .defformat import (
    DefinitionError,
    SuiteError,
    SUITES,
    parse_definition,
    resolve_definition,
    run_checks,
)
from .h4_library import H4Params, ZeroParameter, build_h4, build_h4_yd_table
from .hom_algebra import check_hom_algebra, check_hom_coalgebra, check_hom_hopf, require
from .t_category import _conj_pair, _tensor_basis, braiding
from .yd_modules import check_yd_module


def render_text_report(report):
    lines = ["suite: %s" % report.suite, "seed: %d" % report.seed]
    for item in report.items:
        status = "pass" if item.passed else "FAIL"
        lines.append("[%s] %s  --  %s" % (status, item.identity, item.law))
        if item.witness is not None:
            w = item.witness
            lines.append("       at %s (indices %s)" % (",".join(map(str, w.labels)), list(w.inputs)))
            lines.append("       lhs: %s" % " ".join(str(x) for x in w.lhs))
            lines.append("       rhs: %s" % " ".join(str(x) for x in w.rhs))
    bad = len(report.failures())
    lines.append("%d identities checked, %d failing" % (len(report.items), bad))
    return "\n".join(lines) + "\n"


#: json.dumps(..., indent=2) of one item of a report, and of a witness
_ITEM = '{\n      "id": %s,\n      "paper_ref": %s,\n      "status": "%s"%s\n    }'
_WITNESS = ',\n      "witness": {\n        "inputs": %s,\n        "labels": %s,\n        "lhs": %s,\n        "rhs": %s\n      }'
_string = json.encoder.encode_basestring_ascii


def _array(texts, indent):
    """A JSON array of encoded values as json.dumps(..., indent=2) lays it out at indent."""
    sep = "\n" + indent + "  "
    return "[" + sep + ("," + sep).join(texts) + "\n" + indent + "]" if texts else "[]"


def render_json_report(report):
    """json.dumps(..., indent=2) of the report's suite, seed and items, one
    template per item; strings go through json's own escaper."""
    items = []
    for item in report.items:
        w = item.witness
        if w is not None:
            w = _WITNESS % tuple(_array(v, "        ") for v in (
                [str(i) for i in w.inputs], [_string(x) for x in w.labels],
                [_string(str(x)) for x in w.lhs], [_string(str(x)) for x in w.rhs]))
        items.append(_ITEM % (_string(item.identity), _string(item.law), "pass" if item.passed else "fail", w or ""))
    return '{\n  "suite": %s,\n  "seed": %s,\n  "items": %s\n}\n' % (
        _string(report.suite), json.dumps(report.seed), _array(items, "  "))


def matrix_to_csv(matrix):
    """Rows of exact rationals as csv.writer's default dialect writes them:
    comma-separated, each row ended by CRLF; an integer or p/q needs no
    quoting."""
    return "".join(",".join([str(x) for x in matrix.row(i)]) + "\r\n" for i in range(matrix.rows))


def _pair_dict(pair):
    def rows(m):
        return [[str(m.entry(i, j)) for j in range(m.cols)] for i in range(m.rows)]

    return {"a": rows(pair.a.matrix), "b": rows(pair.b.matrix)}


def braiding_to_dict(b):
    m, n = b.source
    mat = b.matrix
    return {
        "convention": "columns hold images of domain basis vectors; "
                      "the row-per-source table is the transpose",
        "rows": mat.rows,
        "cols": mat.cols,
        "domain_basis": list(_tensor_basis(m, n)),
        "codomain_basis": list(_tensor_basis(n, m)),
        "source": {
            "m": m.name,
            "n": n.name,
            "m_pair": _pair_dict(m.pair),
            "n_pair": _pair_dict(n.pair),
        },
        "target_pair": _pair_dict(_conj_pair(m.pair, n.pair)),
        "matrix": [[str(mat.entry(i, j)) for j in range(mat.cols)] for i in range(mat.rows)],
    }


def emit_braiding(m, n, out_format="csv"):
    """Serialized braiding matrix of two Yetter-Drinfeld modules.

    CSV is row-major with exact rationals as integer or p/q strings; JSON
    carries basis labels and the source/target component pairs alongside
    the matrix.
    """
    if m.over is not n.over and not m.over.equal_tables(n.over):
        raise SuiteError("modules %r and %r are over different algebras" % (m.name, n.name))
    b = braiding(m, n)
    if out_format == "csv":
        return matrix_to_csv(b.matrix)
    return json.dumps(braiding_to_dict(b), indent=2) + "\n"


def _read_definition(path):
    """The parsed definition file at path; a file that cannot be read is a
    DefinitionError like any other diagnostic."""
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise DefinitionError("cannot read %s: %s" % (path, exc.strerror or exc)) from None
    return parse_definition(data)


def cmd_check(args):
    try:
        report = run_checks(_read_definition(args.file), args.suite, seed=args.seed)
    except DefinitionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    out = render_json_report(report) if args.report == "json" else render_text_report(report)
    sys.stdout.write(out)
    return 0 if report.ok() else 1


def _ydmodule_named(resolved, flag, name):
    """The ydmodule section that the braid flag -flag names; any other name
    is a diagnostic that names the flag and lists the file's ydmodule
    sections."""
    kind, obj = resolved.objects.get(name, (None, None))
    if kind != "ydmodule":
        names = ", ".join(n for n, _ in resolved.of_kind("ydmodule")) or "none"
        raise SuiteError("-%s %s names no ydmodule section; the file's ydmodule sections are: %s"
                         % (flag, name, names))
    return obj


def cmd_braid(args):
    try:
        resolved = resolve_definition(_read_definition(args.file))
        mod_m = _ydmodule_named(resolved, "m", args.m)
        mod_n = _ydmodule_named(resolved, "n", args.n)
        out = emit_braiding(mod_m, mod_n, args.out)
    except DefinitionError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(out)
    return 0


def _demo_param(flag, text):
    """The rational value of a demo flag; a zero denominator or a value that
    is no rational literal is a diagnostic that names the flag."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("--%s %s has a zero denominator" % (flag, text)) from None
    except ValueError:
        raise ValueError("--%s %r is not a rational number" % (flag, text)) from None


def cmd_demo(args):
    try:
        params = H4Params(*(_demo_param(flag, getattr(args, flag)) for flag in ("c", "cp", "cpp")))
        h = build_h4(params.c)
        m = build_h4_yd_table("H4A", params, h=h)
        n = build_h4_yd_table("H4B", params, h=h)
        # the emitted tables are validated, not just built; a failing law
        # would raise InvalidStructure, a ValueError, and exit 2
        for check, obj in ((check_hom_algebra, h.algebra), (check_hom_coalgebra, h.coalgebra),
                           (check_hom_hopf, h), (check_yd_module, m), (check_yd_module, n)):
            require(check(obj))
    except (ZeroParameter, ZeroDivisionError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(emit_braiding(m, n, args.out))
    print(
        "note: columns are images of basis vectors; transpose for the "
        "row-per-source table.",
        file=sys.stderr,
    )
    return 0


@functools.cache
def build_parser():
    """The homyd argument parser, built once per process: each parse_args
    returns a fresh Namespace and leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="homyd",
        description="Exact checks for twisted Hopf structures and their braidings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run an identity suite over a definition file")
    p_check.add_argument("file")
    p_check.add_argument("--suite", choices=SUITES, default="all")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--report", choices=("text", "json"), default="text")
    p_check.set_defaults(func=cmd_check)

    p_braid = sub.add_parser("braid", help="emit the braiding matrix of two modules")
    p_braid.add_argument("file")
    p_braid.add_argument("-m", required=True, help="first ydmodule section name")
    p_braid.add_argument("-n", required=True, help="second ydmodule section name")
    p_braid.add_argument("--out", choices=("csv", "json"), default="csv")
    p_braid.set_defaults(func=cmd_braid)

    p_demo = sub.add_parser("demo", help="built-in demonstration families")
    p_demo.add_argument("what", choices=("h4",))
    p_demo.add_argument("--c", default="1")
    p_demo.add_argument("--cp", default="2")
    p_demo.add_argument("--cpp", default="3")
    p_demo.add_argument("--out", choices=("csv", "json"), default="csv")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader went away (`| head`): send the rest of the output to
        # devnull, so the interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
