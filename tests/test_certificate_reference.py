"""Every certificate check_t_category decides from equals the reference's,
or implies it.

check_t_category reads each law a certificate conjoins by id, the laws of
a component automorphism once per distinct value, numbered by ==
(t_category._Components), and the per-module laws by position.
certificate_reference keeps the functions that computed every identity on
H as a map equality once per module position.  Here every certificate dict
of the five families must equal the reference's, key by key, except the
slots of IMPLIED: the module half of tensor-assoc, eq-3.4, functor-tensor
and conjugate-component read laws of the component automorphisms that
prove the reference's identity on H (t_category docstring), so there the
certificate must imply the reference's, and may fail where the identity
holds for components that are no automorphisms.  On the inputs of the
tcat-h4 benchmark those slots equal the reference's too, so they take no
new fallback.  The booleans are compared, not the reports, since a
fallback can turn a certificate that is wrongly False into a passing item.

The inputs: h4.alg at two twist points, their dense transports, every
perfbench mutation at both points, the twin-module files (test_twin_modules)
at both points, the H4 modules re-tagged with non-commuting triangular
pairs, once each and once from a pool of two automorphisms, the identity
and a triangular one, so that the values repeat across positions in every
combination and an identity holds for some of them only, and the random
non-commuting pairs of test_t_category, h4.alg at both points with a
module that breaks eq-1.8-counit alone, a one-dimensional H that breaks
alpha-mult, an H on which lambda = rho holds but kappa fails, and h4.alg at
both points with H4A re-tagged by pairs of maps that each break some
automorphism laws, conjugated also by such pairs, so that one automorphism
conjunct of tensor-assoc, eq-3.4 or functor-tensor fails alone where its
identity fails.  tensor-component reads kappa and laws of H, which the
reference restates as maps; lambda = rho is computed by neither.  Each is
conjugated by the identity pair, its file's autpairs and its modules'
pairs.
"""

import itertools
import random
import sys

import pytest

import homyd.exactlin as exactlin
import homyd.t_category as tc
from certificate_reference import reference_certificates
from homyd.defformat import parse_definition, resolve_definition, run_checks
from homyd.exactlin import LinearMap, rat
from homyd.h4_library import build_h4
from homyd.hom_algebra import (AutPair, HomHopfAlgebraData, HopfAutomorphism, check_hom_algebra,
                                identity_automorphism)
from homyd.yd_modules import YDModuleData, check_hom_module, check_yd, trivial_yd
from test_assoc_certificate import INPUTS, TWISTED, numbered, retagged_objects, shipped_text
from test_braiding_certificate import nilpotent_objects
from test_conjugation_certificate import conjugating_pairs
from test_inverse_unit_certificate import counit_text
from test_t_category import random_structure
from test_twin_modules import twin_text
from transport import transport

POINTS = ("c = 1", TWISTED)


def resolved_objects(resolved):
    """(h, modules, pairs) as the tcat suite takes them from a resolved
    file, with the modules' pairs among the conjugating pairs."""
    _, h = resolved.get("H4")
    modules = [yd for _, yd in resolved.of_kind("ydmodule")] + [trivial_yd(h)]
    return h, modules, conjugating_pairs(h, modules, [pair for _, pair in resolved.of_kind("autpair")])


def file_objects(text):
    return resolved_objects(resolve_definition(parse_definition(text)))


def shipped_cases():
    for point in POINTS:
        yield point, file_objects(shipped_text(point))
        yield "dense, %s" % point, resolved_objects(
            transport(resolve_definition(parse_definition(shipped_text(point))), seed=1))


def mutated_cases():
    for point, name in itertools.product(POINTS, sorted(INPUTS.MUTATIONS)):
        yield "%s, %s" % (point, name), file_objects(
            INPUTS.apply_mutation(shipped_text(point), INPUTS.MUTATIONS[name]))


def twin_cases():
    for point, broken in itertools.product(POINTS, (False, True)):
        yield "%s, broken %s" % (point, broken), file_objects(twin_text(shipped_text(point), broken))


def retagged_cases():
    """The H4 modules re-tagged with a triangular pair each, and with the
    four pairs (X, Y) from a pool of the identity, a Hopf automorphism, and
    a triangular automorphism, which is none."""
    [(label, (h, modules))] = retagged_objects()
    yield label, (h, modules, conjugating_pairs(h, modules))
    pool = [identity_automorphism(h.dim), random_structure(h, random.Random(2032), 1, "X").pair_a]
    pooled = [YDModuleData(h, m.action, m.coaction, m.mu, AutPair(a, b), basis=m.basis, label=m.name)
              for m, (a, b) in zip(modules, itertools.product(pool, repeat=2))]
    yield "pooled", (h, pooled, conjugating_pairs(h, pooled))


def random_cases():
    """random_structure modules with the non-commuting pairs of
    test_t_category's non_commuting fixture, beside the trivial module."""
    rng = random.Random(26)
    h = build_h4(rat(-3, 2))
    mods = [random_structure(h, rng, dim, "R%d" % dim) for dim in (1, 2, 1)]
    base = [m.pair for m in mods]
    pairs = base + [tc.group_mul(p, q) for p, q in zip(base, base[1:] + base[:1])]
    yield "random", (h, mods + [trivial_yd(h)], conjugating_pairs(h, mods, pairs))


def alpha_mult_cases():
    """A one-dimensional H, 1 1 = 1 with unit 2, twist alpha = 2, comul(1)
    = 2 1 (x) 1, eps(1) = 1 and S(1) = 2, on which alpha(ab) = alpha(a)
    alpha(b) fails, with a module whose action and coaction are zero, a
    Yetter-Drinfeld module in the identity component, twice: every other
    law that eq-3.5's certificate reads holds, so it fails through
    alpha-mult alone."""
    one, two = LinearMap.identity(1), LinearMap(1, 1, [2])
    h = HomHopfAlgebraData.from_maps(("1",), one, two, two, one, two, two)
    zero = YDModuleData(h, LinearMap.zeros(1, 1), LinearMap.zeros(1, 1), one, AutPair.identity(1), label="Z")
    yield "alpha-mult", (h, [zero, zero], conjugating_pairs(h, [zero]))


def kappa_cases():
    """test_braiding_certificate.nilpotent_objects, an H on which every law
    the braiding module-map certificate reads holds but kappa, and Psi_L =
    Psi_R fails with it, with its zero module twice."""
    h, zero = nilpotent_objects()
    yield "kappa", (h, [zero, zero], conjugating_pairs(h, [zero]))


def counit_cases():
    """h4.alg at both twist points with a fifth module Z whose coaction is
    zero (test_inverse_unit_certificate.counit_text), which breaks
    eq-1.8-counit alone."""
    for point in POINTS:
        yield "counit, %s" % point, file_objects(counit_text(shipped_text(point)))


def diagonal_cases():
    """h4.alg at both points: H4A, the trivial module and H4A re-tagged by
    (I, E), (E, I), (I, F), (R, I) and (T, I), conjugated also by (F, I),
    (I, F), (E, I) and (I, E).  Over the basis 1, g, x, gx, E = diag(1, -1,
    1, -1) is multiplicative but no coalgebra map, F = diag(1, 1, 2, 3) a
    coalgebra map but not multiplicative, R (gx -> x + gx) commutes with
    alpha but is neither, and T, random_structure's triangular map, mixes
    1 and x; all but T commute with alpha, and diag(1, 1, l, l), the form
    of h4.alg's autpairs, commutes with each but T."""
    def diag(*d):
        return HopfAutomorphism(LinearMap(4, 4, [d[i] if i == j else 0 for i in range(4) for j in range(4)]))

    ident, e, f = diag(1, 1, 1, 1), diag(1, -1, 1, -1), diag(1, 1, 2, 3)
    r = HopfAutomorphism(LinearMap(4, 4, [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1]))
    for point in POINTS:
        h, modules, pairs = file_objects(shipped_text(point))
        m, tri = modules[0], random_structure(h, random.Random(2032), 1, "X").pair_a
        mods = [m, modules[-1]] + [YDModuleData(h, m.action, m.coaction, m.mu, AutPair(a, b), basis=m.basis,
                                                label="%s%d" % (m.name, k))
                                   for k, (a, b) in enumerate(((ident, e), (e, ident), (ident, f), (r, ident),
                                                               (tri, ident)))]
        extra = [AutPair(a, b) for a, b in ((f, ident), (ident, f), (e, ident), (ident, e))]
        yield "diagonal, %s" % point, (h, mods, conjugating_pairs(h, mods, pairs + extra))


CASES = {"shipped": shipped_cases, "mutations": mutated_cases, "twin": twin_cases,
         "retagged": retagged_cases, "random": random_cases, "alpha-mult": alpha_mult_cases,
         "counit": counit_cases, "kappa": kappa_cases, "diagonal": diagonal_cases}


def certificates(h, modules, pairs, member):
    """Per family, the certificate dict check_t_category decides from."""
    comps, keys = numbered(h, modules)
    pair_keys = [comps.key(p) for p in pairs]
    laws = tc._laws(h, modules, comps)
    return {
        "braiding": tc._braiding_certificates(keys, member, laws),
        "conjugate": tc._conjugate_certificates(pair_keys, keys, member, laws),
        "functor": tc._functor_certificates(pair_keys, keys, laws),
        "triple": tc._certificates(keys, laws),
        "unit": tc._unit_certificates(keys, laws),
    }


def flat(families):
    """{(family, key, slot): verdict} of the certificate dicts, slot None
    for a family of one verdict per key, and a key of one position made a
    tuple."""
    out = {}
    for family, certified in families.items():
        for key, held in certified.items():
            key = key if isinstance(key, tuple) else (key,)
            for slot, verdict in enumerate(held) if isinstance(held, tuple) else ((None, held),):
                out[family, key, slot] = verdict
    return out


#: the (family, slot) pairs whose certificate implies the reference's
#: identity on H, which may hold where the certificate fails
IMPLIED = {("triple", 0), ("triple", 2), ("functor", None), ("conjugate", None)}


def compared(h, modules, pairs):
    """The certificates of check_t_category and the reference's, flat."""
    conj = {(pi, i): tc.conjugate_yd(p, m) for pi, p in enumerate(pairs) for i, m in enumerate(modules)}
    member = [check_yd(m).ok() for m in modules]
    return flat(certificates(h, modules, pairs, member)), flat(reference_certificates(h, modules, pairs, conj, member))


def test_the_alpha_mult_case_breaks_alpha_mult_alone():
    # of the laws eq-3.5's certificate reads, only alpha-mult fails, so a
    # reference that dropped it would hold there
    [(_, (h, modules, _))] = alpha_mult_cases()
    assert "alpha-mult" not in tc._passing(check_hom_algebra(h.algebra))
    assert all({"module-twist", "module-assoc"} <= tc._passing(check_hom_module(m)) for m in modules)
    comps, keys = numbered(h, modules)
    assert "aut-mult" in tc._passing(comps.report[0,])
    assert not any(certified[3] for certified in tc._certificates(keys, tc._laws(h, modules, comps)).values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_certificate_equals_or_implies_the_reference(case):
    held = implied = 0
    for label, (h, modules, pairs) in CASES[case]():
        got, want = compared(h, modules, pairs)
        assert list(got) == list(want), label
        wrong = [key for key, holds in want.items()
                 if got[key] != holds and not (key[::2] in IMPLIED and holds and not got[key])]
        assert wrong == [], label
        held += sum(want.values())
        implied += sum(v for key, v in got.items() if key[::2] in IMPLIED)
    assert held and implied


def benchmark_texts():
    """The tcat-h4 benchmark's inputs at both points: h4.alg, two clean
    family variants, and its module and Hopf mutations."""
    rng = random.Random(38)
    for point in POINTS:
        text = shipped_text(point)
        yield point, text
        yield "clean, %s" % point, INPUTS.h4_family_text(*INPUTS.sample_point(rng))
        for name in ("h4a-coact-1-2", "counit-g-2", "counit-1-2", "g-squared-minus-1"):
            yield "%s, %s" % (name, point), INPUTS.apply_mutation(text, INPUTS.MUTATIONS[name])


def test_the_implied_slots_equal_the_reference_on_the_benchmark_inputs():
    for label, text in benchmark_texts():
        got, want = compared(*file_objects(text))
        wrong = [key for key, holds in want.items() if key[::2] in IMPLIED and got[key] != holds]
        assert wrong == [], label


def counted_tcat(monkeypatch, text):
    """The tcat report of text, and over the whole op the compose calls with
    no identity operand, the kron calls, and the kron calls, map equalities
    and inverted automorphism products that t_category's own code makes
    outside kappa (_contraction_law)."""
    calls = dict.fromkeys(("compose", "kron", "own kron", "own ==", "inv"), 0)
    compose, kron, equal, inv = exactlin.compose, exactlin.kron, LinearMap.__eq__, HopfAutomorphism.inv
    contraction, in_kappa = tc._contraction_law, []

    def counted_compose(f, g):
        calls["compose"] += not (exactlin._is_identity(f) or exactlin._is_identity(g))
        return compose(f, g)

    def counted_kron(f, g):
        calls["kron"] += 1
        return kron(f, g)

    def own_kron(f, g):
        calls["own kron"] += not in_kappa
        return counted_kron(f, g)

    def counted_equal(f, g):
        calls["own =="] += not in_kappa and sys._getframe(1).f_globals["__name__"] == tc.__name__
        return equal(f, g)

    def counted_inv(f):
        calls["inv"] += 1
        return inv(f)

    def kappa(h):
        in_kappa.append(True)
        try:
            return contraction(h)
        finally:
            in_kappa.pop()

    monkeypatch.setattr(exactlin, "compose", counted_compose)
    for module in ("homyd.exactlin", "homyd.hom_algebra", "homyd.yd_modules"):
        monkeypatch.setattr(sys.modules[module], "kron", counted_kron)
    monkeypatch.setattr(tc, "kron", own_kron)
    monkeypatch.setattr(LinearMap, "__eq__", counted_equal)
    monkeypatch.setattr(HopfAutomorphism, "inv", counted_inv)
    monkeypatch.setattr(tc, "_contraction_law", kappa)
    rep = run_checks(parse_definition(text), "tcat")
    monkeypatch.undo()
    return rep, calls


#: per twist point, the compose calls with no identity operand and the kron
#: calls of a clean tcat op on h4.alg
CLEAN_CALLS = {"c = 1": {"compose": 103, "kron": 94}, TWISTED: {"compose": 142, "kron": 94}}


@pytest.mark.parametrize("point", POINTS)
def test_a_clean_tcat_op_builds_no_t_x_split_or_b_mn(monkeypatch, point):
    # every certificate but kappa is a conjunction of laws read by id, so
    # t_category's own code builds no T_X, no split g_{M,N} and no B_MN
    # (no kron and no inverted product) and compares no maps outside
    # kappa; at c = -3/2 the products were 1,256 composes and 702 krons
    # when each T_X was built per position, 723 and 453 while every
    # braiding, inverse braiding and unit tensor was built and compared,
    # 598 and 291 while every conjugate ^pN was built, 576 and 275 (479
    # and 275 at c = 1) while Psi_L = Psi_R, Xi_L pre = Xi_R pre and
    # eq-3.5's braid law were computed as maps, 481 and 208 (410 and 208
    # at c = 1) while lambda = rho was computed beside kappa, and 466 and
    # 193 (400 and 193 at c = 1) while 4 T_X, the splits and the B_MN
    # served the identities of tensor-assoc, eq-3.4, functor-tensor and
    # conjugate-component
    rep, calls = counted_tcat(monkeypatch, shipped_text(point))
    assert rep.ok() and len(rep.items) > 400
    assert (calls["own kron"], calls["own =="], calls["inv"]) == (0, 0, 0)
    assert {k: calls[k] for k in ("compose", "kron")} == CLEAN_CALLS[point]
