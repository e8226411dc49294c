"""The hexagon certificates are sound, and the fallback runs only where
one fails.

check_t_category decides eq-3.4 and eq-3.5 of each triple (M, N, P) from
laws read by id (t_category._certificates) and builds the triple braidings of an
equation only where its certificate fails.  A certificate is sufficient,
not necessary: here, for every triple and each equation, it is computed
beside the full matrix comparison of check_hexagons, and a certificate that
holds must meet a comparison that holds.  The inputs are those of the
tensor-assoc certificate test, and random_structure modules beside the
trivial one.
"""

import itertools
import random

import pytest

import homyd.t_category as tc
from homyd.defformat import parse_definition, run_checks
from homyd.yd_modules import trivial_yd
from test_assoc_certificate import CASES as ASSOC_CASES
from test_assoc_certificate import INPUTS, TWISTED, numbered, objects, shipped_text
from test_t_category import random_structure


def certified_equations(h, modules):
    """Per triple and equation, the certificate's verdict and the full
    comparison's."""
    index_pairs = list(itertools.product(range(len(modules)), repeat=2))
    tensor = {(i, j): tc.tensor_yd(modules[i], modules[j]) for i, j in index_pairs}
    braid = {(i, j): tc.braiding(modules[i], modules[j]) for i, j in index_pairs}
    twisted = {(i, j): tc.conjugate_yd(modules[i].pair, modules[j]) for i, j in index_pairs}
    comps, keys = numbered(h, modules)
    certified = tc._certificates(keys, tc._laws(h, modules, comps))
    for i, j, k in itertools.product(range(len(modules)), repeat=3):
        full = tc.check_hexagons(braid[i, j], braid[j, k], braid[i, k], lambda: tensor[i, j],
                                 lambda: tensor[j, k], lambda: twisted[j, k], (False, False))
        for item, cert_ok in zip(full.items, certified[i, j, k][2:]):
            yield item.identity, cert_ok, item.passed


def random_objects():
    """Two random_structure modules, arbitrary tables with non-commuting
    triangular pairs, beside the trivial module of H4 at c = -3/2."""
    h, _ = objects(shipped_text(TWISTED))
    rng = random.Random(2024)
    yield "random", (h, [random_structure(h, rng, dim, "R%d" % dim) for dim in (1, 2)] + [trivial_yd(h)])


CASES = dict(ASSOC_CASES, random=random_objects)


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_holding_certificate_meets_a_holding_full_comparison(case):
    held, unsound = 0, []
    for label, (h, modules) in CASES[case]():
        for identity, cert_ok, full_ok in certified_equations(h, modules):
            held += cert_ok
            if cert_ok and not full_ok:
                unsound.append((label, identity))
    assert unsound == []
    # the retagged pairs are no coalgebra maps, so no certificate holds there
    assert held > 0 or case == "retagged"


def hexagon_braidings(monkeypatch, text):
    """The tcat report of text and the braidings check_hexagons builds, as
    (eq-3.4's, eq-3.5's) counts: eq-3.4 builds c_{MN,P} and c_{M,^NP},
    eq-3.5 c_{M,NP}, the only one whose second factor is a tensor."""
    inside, built = [], []
    braiding, check_hexagons = tc.braiding, tc.check_hexagons

    def recording_braiding(m, n):
        if inside:
            built.append(n.name)
        return braiding(m, n)

    def recording_check_hexagons(*args):
        inside.append(True)
        try:
            return check_hexagons(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(tc, "braiding", recording_braiding)
    monkeypatch.setattr(tc, "check_hexagons", recording_check_hexagons)
    rep = run_checks(parse_definition(text), "tcat")
    monkeypatch.undo()
    eq35 = sum("(x)" in n for n in built)
    return rep, (len(built) - eq35, eq35)


FALLBACKS = {
    None: (0, 0),
    "g-squared-minus-1": (0, 64),
    "h4a-coact-1-2": (32, 0),
    "counit-g-2": (0, 16),
}


@pytest.mark.parametrize("mutation", sorted(FALLBACKS, key=str))
@pytest.mark.parametrize("point", ["c = 1", TWISTED])
def test_hexagon_fallbacks_on_the_shipped_file_and_its_mutations(monkeypatch, point, mutation):
    text = shipped_text(point)
    if mutation is not None:
        text = INPUTS.apply_mutation(text, INPUTS.MUTATIONS[mutation])
    rep, counts = hexagon_braidings(monkeypatch, text)
    assert counts == FALLBACKS[mutation]
    assert rep.ok() == (mutation is None)
