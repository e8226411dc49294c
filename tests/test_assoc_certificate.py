"""The tensor-assoc certificate is sound, and the fallback runs only
where it fails.

check_t_category decides each half of tensor-assoc(M, N, P) from laws read
by id (t_category._certificates) and builds the two triple tensors only for
a triple whose certificate fails.  A certificate is sufficient, not
necessary: here, for every triple and each half, it is computed beside the
full comparison of the two triple tensors, and a certificate that holds
must meet a full comparison that holds.  The inputs are h4.alg at two twist
points, every perfbench mutation (loaded read-only) at seeded points, and
the H4 modules re-tagged with non-commuting triangular pairs, which are no
automorphisms at all.
"""

import itertools
import random
from pathlib import Path

import pytest

import homyd.t_category as tc
from homyd.defformat import parse_definition, resolve_definition, run_checks
from homyd.exactlin import LinearMap, kron
from homyd.t_category import associator, tensor_yd
from homyd.yd_modules import YDModuleData, trivial_yd
from test_t_category import random_structure
from test_yd_modules import load_bench_inputs

ROOT = Path(__file__).resolve().parent.parent
INPUTS = load_bench_inputs()
TWISTED = "c = -3/2"


def shipped_text(point="c = 1"):
    text = (ROOT / "h4.alg").read_text(encoding="utf-8")
    assert text.count("c = 1\n") == 1
    return text.replace("c = 1\n", point + "\n")


def numbered(h, modules):
    """The _Components of one check_t_category call on modules, and the
    numbers of each module's pair in it, by position."""
    comps = tc._Components(h)
    return comps, [comps.key(m.pair) for m in modules]


def objects(text):
    """The H4 of text and its ydmodules plus the trivial module, as the tcat
    suite takes them."""
    resolved = resolve_definition(parse_definition(text))
    _, h = resolved.get("H4")
    return h, [yd for _, yd in resolved.of_kind("ydmodule")] + [trivial_yd(h)]


def full_halves(m, n, p, mn, np):
    """The module and the comodule half of tensor-assoc(M, N, P) from the
    two triple tensors, as check_t_category compares them on fallback."""
    idh = LinearMap.identity(m.over.dim)
    left_act, left_coact = tc._tensor_maps(mn, p)
    right_act, right_coact = tc._tensor_maps(m, np)
    a = associator(m, n, p)
    return (right_act @ kron(idh, a) == a @ left_act,
            right_coact @ a == kron(a, idh) @ left_coact)


def certified_halves(h, modules):
    """Per triple and half, the certificate's verdict and the full
    comparison's."""
    index_pairs = itertools.product(range(len(modules)), repeat=2)
    tensor = {(i, j): tensor_yd(modules[i], modules[j]) for i, j in index_pairs}
    comps, keys = numbered(h, modules)
    certified = tc._certificates(keys, tc._laws(h, modules, comps))
    for i, j, k in itertools.product(range(len(modules)), repeat=3):
        full = full_halves(modules[i], modules[j], modules[k], tensor[i, j], tensor[j, k])
        triple = ",".join(modules[x].name for x in (i, j, k))
        yield from zip((triple + ":module", triple + ":comodule"), certified[i, j, k][:2], full)


def mutated_objects():
    """Every perfbench mutation of the H4 family at three seeded points."""
    rng = random.Random(23)
    for n in range(3):
        clean = INPUTS.h4_family_text(*INPUTS.sample_point(rng))
        for name in sorted(INPUTS.MUTATIONS):
            yield "%s@%d" % (name, n), objects(INPUTS.apply_mutation(clean, INPUTS.MUTATIONS[name]))


def retagged_objects():
    """The H4 modules of h4.alg at c = -3/2, each in the component of a
    random_structure's upper-triangular pair; such pairs do not commute."""
    h, modules = objects(shipped_text(TWISTED))
    rng = random.Random(2016)
    yield "retagged", (h, [
        YDModuleData(h, m.action, m.coaction, m.mu, random_structure(h, rng, 1, m.name).pair,
                     basis=m.basis, label=m.name)
        for m in modules
    ])


CASES = {
    "h4.alg": lambda: [("c = 1", objects(shipped_text()))],
    "h4.alg at c = -3/2": lambda: [(TWISTED, objects(shipped_text(TWISTED)))],
    "retagged": retagged_objects,
    "perfbench mutations": mutated_objects,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_holding_certificate_meets_a_holding_full_comparison(case):
    held, unsound = 0, []
    for label, (h, modules) in CASES[case]():
        for half, cert_ok, full_ok in certified_halves(h, modules):
            held += cert_ok
            if cert_ok and not full_ok:
                unsound.append((label, half))
    assert held and unsound == []


def fallbacks(monkeypatch, text):
    """The triples for which the tcat suite builds both triple tensors: the
    _tensor_maps calls with a tensor product as the left, and as the right,
    factor."""
    calls = []
    tensor_maps = tc._tensor_maps

    def recording(m, n):
        calls.append((m.name, n.name))
        return tensor_maps(m, n)

    monkeypatch.setattr(tc, "_tensor_maps", recording)
    rep = run_checks(parse_definition(text), "tcat")
    monkeypatch.undo()
    left = sum("(x)" in m for m, _ in calls)
    assert left == sum("(x)" in n for _, n in calls)
    return rep, left


@pytest.mark.parametrize("point", ["c = 1", TWISTED])
def test_clean_files_take_no_fallback_and_g_squared_takes_all(monkeypatch, point):
    rep, count = fallbacks(monkeypatch, shipped_text(point))
    assert rep.ok() and count == 0
    text = INPUTS.apply_mutation(shipped_text(point), INPUTS.MUTATIONS["g-squared-minus-1"])
    rep, count = fallbacks(monkeypatch, text)
    assoc = [item.passed for item in rep.items if ":tensor-assoc(" in item.identity]
    assert count == len(assoc) == 64
    assert assoc.count(False) == 27
