"""The certificates of the braiding-inverse laws and of the unit constraints
are sound, and the fallbacks run only where one fails.

check_t_category decides braiding-inverse-left(M,N) and
braiding-inverse-right(M,N) (the last two slots of
t_category._braiding_certificates), and
unit-left-module(N), unit-left-comodule(N), unit-right-module(N) and
unit-right-comodule(N) (t_category._unit_certificates), from laws of H, of
the modules and of their component automorphisms that the suites state,
read by id; it builds c_{M,N}, its inverse or a unit tensor only for an
item whose certificate fails.  A certificate is sufficient, not necessary:
here, for every pair, every module and each item, it is computed beside the
full comparison (check_braiding_inverse and check_unit_constraints with no
certificate given), and a certificate that holds must meet a comparison
that holds.  The inputs are those of the braiding certificate test (h4.alg
at two twist points, every perfbench mutation at three seeded points and at
both twist points, the H4 modules re-tagged with non-commuting triangular
pairs, random_structure modules, A(g) = 2g in P, an act: cell of H4A
changed), the dense transports of h4.alg at both points, the
twin-module files at both points, and h4.alg at both points with a fifth
module Z whose coaction is zero, which breaks eq-1.8-counit alone.
"""

import itertools
from collections import Counter

import pytest

import homyd.t_category as tc
from homyd.defformat import parse_definition, resolve_definition, run_checks
from homyd.yd_modules import check_yd, trivial_yd
from test_assoc_certificate import INPUTS, numbered, objects, shipped_text
from test_braiding_certificate import CASES as BRAIDING_CASES
from test_braiding_certificate import MAKERS, POINTS
from test_twin_modules import twin_text
from transport import transport

INVERSE = ("braiding-inverse-left", "braiding-inverse-right")
UNIT = ("unit-left-module", "unit-left-comodule", "unit-right-module", "unit-right-comodule")


def certified_items(h, modules):
    """Per item, its certificate's verdict and the full comparison's."""
    comps, keys = numbered(h, modules)
    laws = tc._laws(h, modules, comps)
    member = [check_yd(m).ok() for m in modules]
    braided, unital = tc._braiding_certificates(keys, member, laws), tc._unit_certificates(keys, laws)
    for (i, m), (j, n) in itertools.product(enumerate(modules), repeat=2):
        full = tc.check_braiding_inverse(tc.braiding(m, n), (False, False))
        yield from ((item.identity, cert_ok, item.passed) for item, cert_ok in zip(full.items, braided[i, j][4:]))
    for i, n in enumerate(modules):
        full = tc.check_unit_constraints(n, (False,) * 4)
        yield from ((item.identity, cert_ok, item.passed) for item, cert_ok in zip(full.items, unital[i]))


def dense_and_twin_objects():
    """The dense transports of h4.alg at both twist points (transport.py,
    seed 1), and the twin-module files, clean and broken, at both points."""
    for point in POINTS:
        dense = transport(resolve_definition(parse_definition(shipped_text(point))), seed=1)
        _, h = dense.get("H4")
        yield "dense, %s" % point, (h, [yd for _, yd in dense.of_kind("ydmodule")] + [trivial_yd(h)])
        for broken in (False, True):
            yield "twin, broken %s, %s" % (broken, point), objects(twin_text(shipped_text(point), broken))


def counit_text(text):
    """text with a one-dimensional module Z on which 1 and g act as the
    identity and x and gx as zero, with the zero coaction: eq-1.8-counit,
    z0 eps(z1) = mu^-1(z), fails for Z, and every other law of Z holds."""
    return text + "\n[ydmodule Z over H4]\nbasis: z\nact: 1 z -> z\nact: g z -> z\ncoact: z -> 0\n"


def counit_objects():
    """h4.alg at both twist points with Z (counit_text)."""
    for point in POINTS:
        yield "counit, %s" % point, objects(counit_text(shipped_text(point)))


CASES = {**BRAIDING_CASES, "dense and twin": dense_and_twin_objects, "counit": counit_objects}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_holding_certificate_meets_a_holding_full_comparison(case):
    held, failed, unsound = Counter(), 0, []
    for label, (h, modules) in CASES[case]():
        for item, cert_ok, full_ok in certified_items(h, modules):
            held[item.split("(")[0]] += cert_ok
            failed += not full_ok
            if cert_ok and not full_ok:
                unsound.append((label, item))
    assert unsound == []
    # the retagged pairs are no automorphisms, so only the unit-comodule
    # certificates, which read no pair, hold there
    assert all(held[f] for f in (UNIT[1::2] if case == "retagged" else INVERSE + UNIT))
    assert failed or case not in ("perfbench mutations", "mutations at both points", "broken", "counit")


@pytest.mark.parametrize("point", POINTS)
def test_the_counit_module_breaks_eq_1_8_counit_alone(monkeypatch, point):
    # of the laws the inverse certificates read, only eq-1.8-counit of Z
    # fails, so the 5 pairs (M, Z) take the full comparison, which fails
    # both items of each: a certificate that dropped eq-1.8-counit would
    # hold there
    text = counit_text(shipped_text(point))
    yd = run_checks(parse_definition(text), "yd")
    assert len(yd.items) == 40 and [item.identity for item in yd.failures()] == ["Z:eq-1.8-counit"]
    rep, counts = fallbacks(monkeypatch, text)
    assert counts == (5, 5, 0, 0, 0, 0)
    assert len(rep.items) == 713
    assert [item.identity for item in rep.failures()] == [
        "H4:braiding-inverse-%s(%s,Z)" % (side, m) for m in ("H4A", "H4B", "H4AB", "Z", "k")
        for side in ("left", "right")] + ["H4:thm-3.7"]


def fallbacks(monkeypatch, text):
    """The tcat report of text, and the number of pairs, or of modules,
    whose certificate fails, per item of INVERSE and of UNIT."""
    seen = {}

    def recording(name):
        certificates = getattr(tc, name)

        def wrapped(*args):
            seen[name] = certificates(*args)
            return seen[name]
        return wrapped

    for name in ("_braiding_certificates", "_unit_certificates"):
        monkeypatch.setattr(tc, name, recording(name))
    rep = run_checks(parse_definition(text), "tcat")
    monkeypatch.undo()
    counts = [sum(not held[f] for held in seen[name].values())
              for name, slots in (("_braiding_certificates", (4, 5)), ("_unit_certificates", range(4)))
              for f in slots]
    return rep, tuple(counts)


#: per input, the fallbacks of braiding-inverse-left and -right, and of
#: unit-left-module, unit-left-comodule, unit-right-module and
#: unit-right-comodule, the same at both points.  The inverse certificates
#: read the module laws of M, the comodule laws of N, the automorphism laws
#: of B_M and the antipode laws of H; the unit certificates read
#: module-twist or eq-1.8-coact of N, the counit or unit laws of H and
#: eps A = eps or eps B = eps.
FALLBACKS = {
    None: (0, 0, 0, 0, 0, 0),
    "broken P": (0, 0, 0, 0, 0, 0),
    "broken H4A": (4, 4, 0, 0, 0, 0),
    "alpha-g-neg": (16, 16, 4, 4, 4, 4),
    "antipode-g-neg": (16, 16, 0, 0, 0, 0),
    "antipode-x-sign": (16, 16, 0, 0, 0, 0),
    "comul-g-2": (16, 16, 4, 0, 4, 0),
    "counit-1-2": (16, 16, 4, 0, 4, 0),
    "counit-g-2": (16, 16, 4, 0, 4, 0),
    "g-squared-minus-1": (16, 16, 0, 0, 0, 0),
    "h4a-coact-1-2": (4, 4, 0, 0, 0, 0),
    "h4ab-mu-g-2": (7, 7, 1, 1, 1, 1),
    "h4b-act-1g-2": (4, 4, 0, 0, 0, 0),
    "h4b-coact-g-2": (4, 4, 0, 0, 0, 0),
    "mul-1g-2": (16, 16, 0, 0, 0, 4),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS, key=str), ids=str)
@pytest.mark.parametrize("point", POINTS)
def test_fallbacks_on_the_shipped_file_and_its_mutations(monkeypatch, point, name):
    assert set(MAKERS) == set(FALLBACKS)
    rep, counts = fallbacks(monkeypatch, MAKERS[name](shipped_text(point)))
    assert counts == FALLBACKS[name]
    assert rep.ok() == (name is None)


@pytest.mark.parametrize("point", POINTS)
def test_the_coaction_mutation_still_compares_and_fails_four_and_four_inverse_items(point):
    # eq-1.7 fails for H4A, so the 4 pairs (M, H4A) take the full
    # comparison, which fails both items of each
    text = INPUTS.apply_mutation(shipped_text(point), INPUTS.MUTATIONS["h4a-coact-1-2"])
    failing = Counter(item.identity.split(":")[1].split("(")[0] for item in run_checks(parse_definition(text), "tcat").items
                      if not item.passed)
    assert [failing[f] for f in INVERSE] == [4, 4]


@pytest.mark.parametrize("point", POINTS)
def test_a_clean_op_builds_no_braiding_no_inverse_and_no_unit_tensor(monkeypatch, point):
    # every certificate holds on the shipped file, so no braiding, inverse
    # braiding, tensor product or unit tensor is built
    calls = Counter()

    def counted(name):
        build = getattr(tc, name)

        def wrapped(*args):
            calls[name] += 1
            return build(*args)
        return wrapped

    for name in ("braiding", "braiding_inverse", "tensor_yd"):
        monkeypatch.setattr(tc, name, counted(name))
    assert run_checks(parse_definition(shipped_text(point)), "tcat").ok()
    assert calls == Counter()
