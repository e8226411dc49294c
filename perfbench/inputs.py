"""Seeded inputs and hand-derived known answers for the homyd benchmark.

Every op is one homyd CLI request (argv for ``homyd.cli.main``) plus the
answer the benchmark expects back.  The program only ever sees generated
``.alg`` files and command-line arguments.

Inputs come from the H4 family of the shipped ``h4.alg``: the same tables
at other nonzero parameter points.  Points are *generic*: cp and cpp avoid
0, +-1 and each other's +-, and the autpair scalars avoid 0 and +-1, so
every table entry that depends on a parameter stays nonzero and every op
does the same structural work whatever the seed.

The mutation list is written by hand.  Each entry changes one line of one
section and names the identities that must fail, with the calculation
that says why; none of it is read back from homyd's own output.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from fractions import Fraction

#: The shipped definition file, relative to the repository root.
SHIPPED_FILE = "h4.alg"
SHIPPED_POINT = (Fraction(1), Fraction(2), Fraction(3), Fraction(2), Fraction(3))


def _signed(rng, magnitudes):
    return rng.choice(magnitudes) * rng.choice((1, -1))


# Each parameter is drawn from a fixed set of magnitudes with a random sign,
# so a tcat op costs about the same at every point (its Fraction arithmetic
# grows with the size of c most of all) and one run's median is steady.
_C = (Fraction(2), Fraction(1, 2))
_CP = (Fraction(3), Fraction(1, 3), Fraction(3, 2), Fraction(2, 3))
_LAMBDA = (Fraction(2), Fraction(1, 2), Fraction(3), Fraction(1, 3))


def sample_point(rng):
    """(c, cp, cpp, la, lb): twist, the two module pair scalars and the
    autpair scalars, all small nonzero rationals at a generic point."""
    cp = _signed(rng, _CP)
    cpp = _signed(rng, tuple(q for q in _CP if q != abs(cp)))
    return _signed(rng, _C), cp, cpp, _signed(rng, _LAMBDA), _signed(rng, _LAMBDA)


# ---------------------------------------------------------------------------
# the H4-family generator
# ---------------------------------------------------------------------------

_HOPF = """[hopf H4]
basis: 1 g x gx
unit: 1
mul: 1 1 -> 1
mul: 1 g -> g
mul: 1 x -> c * x
mul: 1 gx -> c * gx
mul: g 1 -> g
mul: g g -> 1
mul: g x -> c * gx
mul: g gx -> c * x
mul: x 1 -> c * x
mul: x g -> -c * gx
mul: x x -> 0
mul: x gx -> 0
mul: gx 1 -> c * gx
mul: gx g -> -c * x
mul: gx x -> 0
mul: gx gx -> 0
alpha: 1 -> 1
alpha: g -> g
alpha: x -> c * x
alpha: gx -> c * gx
comul: 1 -> 1@1
comul: g -> g@g
comul: x -> 1 / c * x@1 + 1 / c * g@x
comul: gx -> 1 / c * gx@g + 1 / c * 1@gx
counit: 1 -> 1
counit: g -> 1
antipode: 1 -> 1
antipode: g -> g
antipode: x -> -gx
antipode: gx -> x
"""


def _diag(key, scalar):
    return ["%s: 1 -> 1" % key, "%s: g -> g" % key,
            "%s: x -> %s * x" % (key, scalar), "%s: gx -> %s * gx" % (key, scalar)]


def _ydmodule(name, x1, xg, gx1, gxg, tags):
    """One module section; x1 .. gxg are the coefficient expressions of the
    x and gx rows, tags the (key, scalar) twist-pair lines."""
    lines = ["[ydmodule %s over H4]" % name, "basis: 1 g x gx"]
    lines += _diag("mu", "c")
    lines += ["act: 1 1 -> 1", "act: 1 g -> g", "act: 1 x -> c * x", "act: 1 gx -> c * gx",
              "act: g 1 -> 1", "act: g g -> g", "act: g x -> -c * x", "act: g gx -> -c * gx",
              "act: x 1 -> %s * gx" % x1, "act: x g -> %s * x" % xg,
              "act: x x -> 0", "act: x gx -> 0",
              "act: gx 1 -> %s * gx" % gx1, "act: gx g -> %s * x" % gxg,
              "act: gx x -> 0", "act: gx gx -> 0",
              "coact: 1 -> 1@1", "coact: g -> g@g",
              "coact: x -> 1 / c * x@1 + 1 / c * g@x",
              "coact: gx -> 1 / c * gx@g + 1 / c * 1@gx"]
    for key, scalar in tags:
        lines += _diag(key, scalar)
    return "\n".join(lines) + "\n"


def h4_family_text(c, cp, cpp, la, lb):
    """The shipped h4.alg layout at another parameter point; at
    SHIPPED_POINT it reproduces the shipped file byte for byte."""
    parts = ["[params]\nc = %s\ncp = %s\ncpp = %s\n" % (c, cp, cpp), _HOPF]
    parts.append(_ydmodule("H4A", "c * (cp - 1)", "c * (1 + cp)", "c * (1 - cp)",
                           "-c * (1 + cp)", [("a", "cp")]))
    parts.append(_ydmodule("H4B", "c * (1 - cpp)", "c * (1 + cpp)", "c * (cpp - 1)",
                           "-c * (1 + cpp)", [("b", "cpp")]))
    parts.append(_ydmodule("H4AB", "c * (cp - cpp)", "c * (cp + cpp)", "c * (cpp - cp)",
                           "-c * (cp + cpp)", [("a", "cp"), ("b", "cpp")]))
    autpair = "[autpair P over H4]\n" + "\n".join(_diag("a", la) + _diag("b", lb)) + "\n"
    parts.append(autpair)
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# hand-written mutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    name: str
    section: str          # section header the edited line lives in
    old: str
    new: str
    hopf_data: bool       # True when the Hopf section itself is broken
    breaks: dict          # suite -> identity ids (section-prefixed) that must fail
    why: str


MUTATIONS = {m.name: m for m in [
    Mutation(
        "counit-g-2", "[hopf H4]", "counit: g -> 1", "counit: g -> 2", True,
        {"coalgebra": ["H4:counit-right", "H4:counit-left"],
         "hopf": ["H4:counit-right", "H4:counit-left", "H4:bialg-counit-mult",
                  "H4:antipode-left", "H4:antipode-right"],
         "tcat": ["H4:thm-3.7"]},
        "eps(g)=2 breaks eps(gg)=eps(g)eps(g) (1 vs 4), g1 eps(g2)=gamma^-1(g) (2g vs g) and "
        "S(g)g=eps(g)1 (1 vs 2); the trivial module k acts through eps, so k is no module "
        "and the category is not braided crossed (thm-3.7)."),
    Mutation(
        "counit-1-2", "[hopf H4]", "counit: 1 -> 1", "counit: 1 -> 2", True,
        {"coalgebra": ["H4:counit-right", "H4:counit-left"],
         "hopf": ["H4:bialg-counit-unit", "H4:counit-right", "H4:counit-left"],
         "tcat": ["H4:thm-3.7"]},
        "eps(1)=2 breaks eps(1)=1 and 1 eps(1)=gamma^-1(1) (2 vs 1); on k the unit acts by 2, "
        "so 1.m = mu(m) fails and thm-3.7 cannot hold."),
    Mutation(
        "g-squared-minus-1", "[hopf H4]", "mul: g g -> 1", "mul: g g -> -1", True,
        {"algebra": ["H4:eq-1.1"],
         "hopf": ["H4:eq-1.1", "H4:bialg-comul-mult", "H4:bialg-counit-mult"],
         "tcat": ["H4:thm-3.7"]},
        "gg=-1 gives alpha(g)(gx)=c^2 x but (gg)alpha(x)=-c^2 x (eq-1.1), "
        "comul(gg)=-1@1 vs (g@g)(g@g)=1@1, eps(gg)=-1 vs 1; k is no module, so no thm-3.7."),
    Mutation(
        "mul-1g-2", "[hopf H4]", "mul: 1 g -> g", "mul: 1 g -> 2 * g", True,
        {"algebra": ["H4:eq-1.2-left"], "hopf": ["H4:eq-1.2-left"]},
        "1g=2g breaks the twisted unit law 1a=alpha(a) at a=g (2g vs g)."),
    Mutation(
        "alpha-g-neg", "[hopf H4]", "alpha: g -> g", "alpha: g -> -1 * g", True,
        {"algebra": ["H4:eq-1.2-left", "H4:eq-1.2-right"],
         "coalgebra": ["H4:counit-right", "H4:counit-left"]},
        "alpha(g)=-g while 1g=g1=g breaks 1a=a1=alpha(a); the coalgebra twist is the same "
        "alpha, so g1 eps(g2)=g differs from gamma^-1(g)=-g."),
    Mutation(
        "comul-g-2", "[hopf H4]", "comul: g -> g@g", "comul: g -> 2 * g@g", True,
        {"coalgebra": ["H4:counit-right", "H4:counit-left"]},
        "comul(g)=2 g@g gives g1 eps(g2)=2g, not gamma^-1(g)=g, on both sides."),
    Mutation(
        "antipode-x-sign", "[hopf H4]", "antipode: x -> -gx", "antipode: x -> gx", True,
        {"hopf": ["H4:antipode-left", "H4:antipode-right"]},
        "S(x)=gx gives S(x1)x2=(1/c)(gx.1+g.x)=2gx and x1 S(x2)=(1/c)(x.1+g.gx)=2x, "
        "not eps(x)1=0."),
    Mutation(
        "antipode-g-neg", "[hopf H4]", "antipode: g -> g", "antipode: g -> -1 * g", True,
        {"hopf": ["H4:antipode-left", "H4:antipode-right"]},
        "S(g)=-g keeps S bijective but gives S(g)g = g S(g) = -1, not eps(g)1 = 1."),
    Mutation(
        "h4a-coact-1-2", "[ydmodule H4A over H4]", "coact: 1 -> 1@1", "coact: 1 -> 2 * 1@1", False,
        {"yd": ["H4A:eq-1.8-counit", "H4A:eq-2.1"],
         "tcat": ["H4:yd-member(H4A)", "H4:thm-3.7"]},
        "rho(1)=2 1@1 gives m0 eps(m1)=2, not mu^-1(1)=1; at h=x, m=1 the right side of eq-2.1 "
        "is linear in rho(1) and doubles, while the left, rho(c(cp-1)gx), is unchanged and nonzero."),
    Mutation(
        "h4b-act-1g-2", "[ydmodule H4B over H4]", "act: 1 g -> g", "act: 1 g -> 2 * g", False,
        {"yd": ["H4B:module-unit", "H4B:module-assoc"]},
        "1.g=2g breaks 1.m=mu(m) (2g vs g) and alpha(1).(1.g)=4g vs (11).mu(g)=2g."),
    Mutation(
        "h4b-coact-g-2", "[ydmodule H4B over H4]", "coact: g -> g@g", "coact: g -> 2 * g@g", False,
        {"yd": ["H4B:eq-1.8-counit"]},
        "rho(g)=2 g@g gives m0 eps(m1)=2g, not mu^-1(g)=g."),
    Mutation(
        "h4ab-mu-g-2", "[ydmodule H4AB over H4]", "mu: g -> g", "mu: g -> 2 * g", False,
        {"yd": ["H4AB:module-unit", "H4AB:eq-1.8-counit"]},
        "mu(g)=2g while 1.g=g breaks 1.m=mu(m); rho(g)=g@g gives m0 eps(m1)=g, not mu^-1(g)=g/2."),
]}


def apply_mutation(text, mutation):
    """Replace the mutation's line inside its own section, exactly once."""
    start = text.index(mutation.section)
    end = text.find("\n[", start + 1)
    end = len(text) if end < 0 else end
    body = text[start:end]
    old = "\n%s\n" % mutation.old
    if body.count(old) != 1:
        raise ValueError("mutation %s: line %r not unique in %s" % (mutation.name, mutation.old, mutation.section))
    return text[:start] + body.replace(old, "\n%s\n" % mutation.new) + text[end:]


# ---------------------------------------------------------------------------
# ops and workloads
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One request and its known answer.

    expect_exit is the exit code a correct homyd gives; must_fail lists
    identity ids that must be reported as failing; scope, when set, is the
    only section whose items may fail; golden is the sha256 of the exact
    report bytes; point is the (c, cp, cpp) of a braiding emission;
    may_crash marks the one known crash, a tcat check of broken Hopf data
    (ROADMAP item 5).
    """

    argv: list
    expect_exit: int = 0
    must_fail: tuple = ()
    scope: str | None = None
    golden: str | None = None
    mutation: str | None = None
    point: tuple | None = None
    pair_key: str | None = None
    suite: str | None = None
    may_crash: bool = False


class RoundMaker:
    """Builds round k of a workload; every round draws fresh parameter
    points from (seed, k), so no input repeats within a run."""

    def __init__(self, workload, seed, workdir, golden):
        if workload not in WORKLOADS:
            raise ValueError("unknown workload %r" % workload)
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.golden = golden
        self._files = 0

    def _write(self, text):
        path = os.path.join(self.workdir, "in%05d.alg" % self._files)
        self._files += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _variant(self, rng, mutation=None):
        text = h4_family_text(*sample_point(rng))
        if mutation is not None:
            text = apply_mutation(text, MUTATIONS[mutation])
        return self._write(text)

    def round(self, k):
        """The ops of round k; its files replace the previous round's."""
        self._files = 0
        rng = random.Random("%s/%d/%d" % (self.workload, self.seed, k))
        return getattr(self, "_round_" + self.workload.replace("-", "_"))(rng, k)

    def _check_op(self, rng, suite, report, mutation=None):
        path = self._variant(rng, mutation)
        argv = ["check", path, "--suite", suite, "--report", report]
        if mutation is None:
            return Op(argv, suite=suite)
        m = MUTATIONS[mutation]
        # tcat tags every item with the Hopf section, so only the other
        # suites can be held to the mutated section.
        scope = None if m.hopf_data or suite == "tcat" else m.section.split()[1]
        return Op(argv, 1, tuple(m.breaks[suite]), scope, mutation=mutation, suite=suite,
                  may_crash=suite == "tcat" and m.hopf_data)

    # tcat-h4: the shipped file, two clean variants, one module-broken and
    # one Hopf-broken variant.  Two of five files carry a mutation.
    TCAT_MODULE_MUTATIONS = ("h4a-coact-1-2",)
    TCAT_HOPF_MUTATIONS = ("counit-g-2", "g-squared-minus-1", "counit-1-2")

    def _round_tcat_h4(self, rng, k):
        shipped = Op(["check", SHIPPED_FILE, "--suite", "tcat", "--report", "json"],
                     golden=self.golden["tcat-json"], suite="tcat")
        hopf_mut = self.TCAT_HOPF_MUTATIONS[(self.seed + k) % len(self.TCAT_HOPF_MUTATIONS)]
        return [
            shipped,
            self._check_op(rng, "tcat", "json"),
            self._check_op(rng, "tcat", "json"),
            self._check_op(rng, "tcat", "json", self.TCAT_MODULE_MUTATIONS[0]),
            self._check_op(rng, "tcat", "json", hopf_mut),
        ]

    # structure-sweep: 20 ops, about half of them mutated.  The yd suite,
    # the heaviest, gets most ops, so the median lands inside its cost
    # cluster rather than on the edge between two suites' clusters.
    STRUCTURE_PLAN = (("yd", 16), ("hopf", 2), ("algebra", 1), ("coalgebra", 1))

    def _round_structure_sweep(self, rng, k):
        ops = []
        for suite, count in self.STRUCTURE_PLAN:
            muts = [name for name, m in MUTATIONS.items() if suite in m.breaks]
            for i in range(count):
                report = ("text", "json")[(i + k // 2) % 2]
                mutated = (i + k) % 2
                mutation = muts[(k * count + i) // 2 % len(muts)] if mutated else None
                ops.append(self._check_op(rng, suite, report, mutation))
        return ops

    # braid-sweep: two points emitted by both the file path (braid) and the
    # built-in path (demo) in both formats, plus three demo-only points, so
    # demo ops (the heavier kind) are the majority and hold the median.
    BRAID_POINTS, DEMO_ONLY_POINTS = 2, 3

    def _round_braid_sweep(self, rng, k):
        ops = []
        for j in range(self.BRAID_POINTS + self.DEMO_ONLY_POINTS):
            c, cp, cpp, la, lb = sample_point(rng)
            point = (c, cp, cpp)
            both = j < self.BRAID_POINTS
            path = self._write(h4_family_text(c, cp, cpp, la, lb)) if both else None
            for out in ("csv", "json"):
                key = "%d/%d/%s" % (k, j, out) if both else None
                ops.append(Op(["demo", "h4", "--c=%s" % c, "--cp=%s" % cp, "--cpp=%s" % cpp,
                               "--out", out], point=point, pair_key=key))
                if both:
                    ops.append(Op(["braid", path, "-m", "H4A", "-n", "H4B", "--out", out],
                                  point=point, pair_key=key))
        return ops


WORKLOADS = ("tcat-h4", "structure-sweep", "braid-sweep")

#: Rounds a traced run executes: a fixed amount of work, so the computed
#: counters of two traced runs with the same seed are identical.
TRACE_ROUNDS = {"tcat-h4": 1, "structure-sweep": 12, "braid-sweep": 12}
