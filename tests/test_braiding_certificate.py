"""The certificates on H of tensor-component and of the braiding
module-map, comodule-map and morphism laws are sound, and the fallbacks run
only where one fails.

check_t_category decides tensor-component(M,N), braiding-module-map(M,N),
braiding-comodule-map(M,N) and braiding-morphism(M,N) from maps on H
(t_category._braiding_certificates), and builds M (x) N, ^MN and ^MN (x) M
only for an item whose certificate fails.  A certificate is sufficient, not
necessary: here, for every pair and family, it is computed beside the full
comparison, and a certificate that holds must meet a comparison that holds.
The inputs are those of the tensor-assoc certificate test (h4.alg at two
twist points, every perfbench mutation at three seeded points, and the H4
modules re-tagged with non-commuting triangular pairs); random_structure
modules with their non-commuting triangular pairs beside the trivial one;
and h4.alg at both twist points with every perfbench mutation, with A(g) =
2g in its autpair P, or with an act: cell of H4A changed.
"""

import itertools
import random
from collections import Counter

import pytest

import homyd.t_category as tc
from homyd.defformat import parse_definition, run_checks
from homyd.yd_modules import check_yd, trivial_yd
from test_assoc_certificate import CASES as ASSOC_CASES
from test_assoc_certificate import INPUTS, TWISTED, objects, shipped_text
from test_t_category import broken_module, broken_p, random_structure

FAMILIES = ("tensor-component", "braiding-module-map", "braiding-comodule-map", "braiding-morphism")
POINTS = ("c = 1", TWISTED)


def certified_items(h, modules):
    """Per pair and family, the certificate's verdict and the full
    comparison's: eq-2.1 for M (x) N, and check_braiding_equivariance with
    no certificate given."""
    laws = tc._laws(h, modules)
    member = [check_yd(m).ok() for m in modules]
    certified = tc._braiding_certificates(h, modules, tc._pair_pieces(modules), member, laws)
    for i, j in itertools.product(range(len(modules)), repeat=2):
        m, n = modules[i], modules[j]
        b = tc.braiding(m, n)
        src, tgt = tc.tensor_yd(m, n), tc.tensor_yd(*b.target)
        full = [check_yd(src).ok()] + [
            item.passed for item in tc.check_braiding_equivariance(b, lambda: src, lambda: tgt, (False,) * 3)]
        for family, cert_ok, full_ok in zip(FAMILIES, certified[i, j], full):
            yield "%s(%s,%s)" % (family, m.name, n.name), cert_ok, full_ok


def random_objects():
    """Two random_structure modules, arbitrary tables with non-commuting
    triangular pairs, beside the trivial module of H4 at c = -3/2."""
    h, _ = objects(shipped_text(TWISTED))
    rng = random.Random(2027)
    yield "random", (h, [random_structure(h, rng, dim, "R%d" % dim) for dim in (1, 2)] + [trivial_yd(h)])


def mutated_shipped_objects():
    """h4.alg at both twist points with every perfbench mutation."""
    for point, name in itertools.product(POINTS, sorted(INPUTS.MUTATIONS)):
        yield "%s@%s" % (name, point), objects(INPUTS.apply_mutation(shipped_text(point), INPUTS.MUTATIONS[name]))


def broken_objects():
    """h4.alg at both twist points with A(g) = 2g in P, which no module's
    component reads, or with H4A's x.1 = c cp gx, which breaks eq-2.1 for
    H4A."""
    for point in POINTS:
        yield "broken P, %s" % point, objects(broken_p(shipped_text(point)))
        yield "broken H4A, %s" % point, objects(broken_module(shipped_text(point)))


CASES = {**ASSOC_CASES, "random": random_objects, "mutations at both points": mutated_shipped_objects,
         "broken": broken_objects}


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
    # the H4 modules break eq-2.1 in the retagged components, so no
    # certificate holds there
    assert all(held[f] for f in FAMILIES) or case == "retagged"
    # modules that break their laws make some full comparisons fail, so the
    # certificates meet failing items there
    assert failed or case not in ("perfbench mutations", "mutations at both points", "broken")


def fallbacks(monkeypatch, text):
    """The tcat report of text, and per family the number of pairs whose
    certificate fails, so that they run the full comparison."""
    seen = []
    braiding_certificates = tc._braiding_certificates

    def recording(*args):
        seen.append(braiding_certificates(*args))
        return seen[-1]

    monkeypatch.setattr(tc, "_braiding_certificates", recording)
    rep = run_checks(parse_definition(text), "tcat")
    monkeypatch.undo()
    [certified] = seen
    return rep, tuple(sum(not c[f] for c in certified.values()) for f in range(len(FAMILIES)))


#: per input, how it is made from h4.alg at a twist point
MAKERS = {
    None: lambda text: text,
    "broken P": broken_p,
    "broken H4A": broken_module,
    **{name: lambda text, name=name: INPUTS.apply_mutation(text, INPUTS.MUTATIONS[name])
       for name in INPUTS.MUTATIONS},
}

#: per input, the fallbacks of tensor-component, braiding-module-map,
#: braiding-comodule-map and braiding-morphism, the same at both points.  A
#: module that breaks eq-2.1 (H4A, H4B, or the trivial module when the
#: counit is broken) fails the tensor-component certificate of its 7 pairs,
#: the comodule-map certificate of the 4 pairs where it comes first, and
#: the module-map certificate of all 7, which reads its module laws; a
#: broken coaction fails the module-map certificate of the 4 pairs where it
#: comes second; a Hopf-table mutation fails every pair's certificates.
FALLBACKS = {
    None: (0, 0, 0, 0),
    "broken P": (0, 0, 0, 0),
    "broken H4A": (7, 7, 4, 0),
    "alpha-g-neg": (16, 16, 16, 16),
    "antipode-g-neg": (16, 16, 16, 0),
    "antipode-x-sign": (16, 16, 16, 0),
    "comul-g-2": (16, 16, 16, 0),
    "counit-1-2": (7, 7, 4, 0),
    "counit-g-2": (7, 7, 4, 0),
    "g-squared-minus-1": (16, 16, 16, 0),
    "h4a-coact-1-2": (7, 4, 7, 0),
    "h4ab-mu-g-2": (0, 7, 7, 7),
    "h4b-act-1g-2": (7, 7, 4, 0),
    "h4b-coact-g-2": (7, 4, 7, 0),
    "mul-1g-2": (16, 16, 16, 0),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS, key=str), ids=str)
@pytest.mark.parametrize("point", POINTS)
def test_fallbacks_on_the_shipped_file_and_its_mutations(monkeypatch, point, name):
    assert set(MAKERS) == set(FALLBACKS)
    rep, counts = fallbacks(monkeypatch, MAKERS[name](shipped_text(point)))
    assert counts == FALLBACKS[name]
    assert rep.ok() == (name is None)
