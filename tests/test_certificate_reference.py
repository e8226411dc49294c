"""Every certificate check_t_category decides from equals the reference's.

check_t_category computes each identity on H that a certificate reads once
per distinct tuple of the component values it reads, numbered by ==
(t_category._Components), and keeps the per-module laws by position.
certificate_reference keeps the functions that computed every identity
once per module position.  Here every certificate dict of the four
families must equal the reference's, key by key; the booleans are
compared, not the reports, since a fallback can turn a certificate that is
wrongly False into a passing item.

The inputs: h4.alg at two twist points, their dense transports, every
perfbench mutation at both points, the twin-module files (test_twin_modules)
at both points, the H4 modules re-tagged with non-commuting triangular
pairs, once each and once from a pool of two automorphisms, the identity
and a triangular one, so that the values repeat across positions in every
combination and an identity holds for some of them only, and the random
non-commuting pairs of test_t_category, h4.alg at both points with a
module that breaks eq-1.8-counit alone, a one-dimensional H that breaks
alpha-mult, and an H on which lambda = rho holds but kappa fails.
tensor-component reads kappa and laws of H, which the reference restates
as maps; lambda = rho is computed by neither.  Each is conjugated by the
identity pair, its file's autpairs and its modules' pairs.
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
from homyd.hom_algebra import AutPair, HomHopfAlgebraData, check_hom_algebra, identity_automorphism
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


CASES = {"shipped": shipped_cases, "mutations": mutated_cases, "twin": twin_cases,
         "retagged": retagged_cases, "random": random_cases, "alpha-mult": alpha_mult_cases,
         "counit": counit_cases, "kappa": kappa_cases}


def certificates(h, modules, pairs, conj, member):
    """Per family, the certificate dict check_t_category decides from."""
    comps, keys = numbered(h, modules)
    conj_keys = {key: comps.key(yd.pair) for key, yd in conj.items()}
    laws = tc._laws(h, modules, comps)
    return {
        "braiding": tc._braiding_certificates(keys, member, laws),
        "conjugate": tc._conjugate_certificates(h, pairs, keys, conj_keys, comps, member),
        "functor": tc._functor_certificates(h, pairs, keys, conj_keys, comps),
        "triple": tc._certificates(h, keys, comps, laws),
        "unit": tc._unit_certificates(keys, laws),
    }


def test_the_alpha_mult_case_breaks_alpha_mult_alone():
    # of the laws eq-3.5's certificate reads, only alpha-mult fails, so a
    # reference that dropped it would hold there
    [(_, (h, modules, _))] = alpha_mult_cases()
    assert "alpha-mult" not in tc._passing(check_hom_algebra(h.algebra))
    assert all({"module-twist", "module-assoc"} <= tc._passing(check_hom_module(m)) for m in modules)
    comps, keys = numbered(h, modules)
    assert "aut-mult" in tc._passing(comps.report[0,])
    assert not any(certified[3] for certified in tc._certificates(
        h, keys, comps, tc._laws(h, modules, comps)).values())


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_certificate_equals_the_reference(case):
    held = 0
    for label, (h, modules, pairs) in CASES[case]():
        conj = {(pi, i): tc.conjugate_yd(p, m) for pi, p in enumerate(pairs) for i, m in enumerate(modules)}
        member = [check_yd(m).ok() for m in modules]
        got = certificates(h, modules, pairs, conj, member)
        want = reference_certificates(h, modules, pairs, conj, member)
        for family, certified in want.items():
            assert list(got[family]) == list(certified), (label, family)
            wrong = [key for key, holds in certified.items() if got[family][key] != holds]
            assert wrong == [], (label, family)
            held += sum(v if isinstance(v, bool) else sum(v) for v in certified.values())
    assert held


def counted_tcat(monkeypatch, text):
    """The tcat report of text, the T_X built, and the compose calls with
    no identity operand and the kron calls, over the whole op."""
    calls, tables = {"compose": 0, "kron": 0}, []
    compose, kron, h_parts = exactlin.compose, exactlin.kron, tc._h_parts

    def counted_compose(f, g):
        calls["compose"] += not (exactlin._is_identity(f) or exactlin._is_identity(g))
        return compose(f, g)

    def counted_kron(f, g):
        calls["kron"] += 1
        return kron(f, g)

    def recording_h_parts(*args):
        tables.append(h_parts(*args))
        return tables[-1]

    monkeypatch.setattr(exactlin, "compose", counted_compose)
    for module in ("homyd.exactlin", "homyd.hom_algebra", "homyd.yd_modules", "homyd.t_category"):
        monkeypatch.setattr(sys.modules[module], "kron", counted_kron)
    monkeypatch.setattr(tc, "_h_parts", recording_h_parts)
    rep = run_checks(parse_definition(text), "tcat")
    monkeypatch.undo()
    return rep, sum(map(len, tables)), calls


#: per twist point, the compose calls with no identity operand and the kron
#: calls of a clean tcat op on h4.alg
CLEAN_CALLS = {"c = 1": {"compose": 400, "kron": 193}, TWISTED: {"compose": 466, "kron": 193}}


@pytest.mark.parametrize("point", POINTS)
def test_a_clean_tcat_op_builds_one_t_per_distinct_pair(monkeypatch, point):
    # h4.alg's four modules carry four distinct pairs, and each conjugate
    # ^pN lies in the pair of some module, so 4 T_X serve the 4 modules and
    # the 8 conjugates (12 when each was built per position); at c = -3/2
    # the products were 1,256 composes and 702 krons then, 723 and 453 while
    # every braiding, inverse braiding and unit tensor was built and
    # compared, 598 and 291 while every conjugate ^pN was built, and 576 and
    # 275 (479 and 275 at c = 1) while Psi_L = Psi_R, Xi_L pre = Xi_R pre
    # and eq-3.5's braid law were computed as maps, and 481 and 208 (410
    # and 208 at c = 1) while lambda = rho was computed beside kappa
    rep, parts, calls = counted_tcat(monkeypatch, shipped_text(point))
    assert rep.ok() and len(rep.items) > 400
    assert parts == 4
    assert calls == CLEAN_CALLS[point]
