"""One Yetter-Drinfeld object per builder call: every builder goes through
the one YDModuleData constructor, which inverts the twist once, and the
objects keep the attributes the outside-in tracer of perfbench/ reads."""

import cProfile
import importlib
import importlib.util
import pstats
from pathlib import Path

import pytest

import homyd.t_category as t_category
import homyd.yd_modules as yd_modules
from homyd.defformat import parse_definition, resolve_definition, run_checks
from homyd.h4_library import H4Params, build_h4, build_h4_yd_table, h4_automorphism
from homyd.hom_algebra import AutPair, identity_automorphism
from homyd.t_category import conjugate_yd, tensor_yd
from homyd.yd_modules import YDModuleData, build_canonical_yd, trivial_yd

ROOT = Path(__file__).resolve().parent.parent
H4_ALG = ROOT / "h4.alg"


def builders():
    """name -> (zero-argument builder, number of objects it builds, number of
    twists it inverts), all over one twisted H4 with non-identity pairs."""
    p = H4Params(2, 3, 5)
    h = build_h4(p.c)
    m = build_h4_yd_table("H4A", p, h=h)
    n = build_h4_yd_table("H4AB", p, h=h)
    pair = AutPair(h4_automorphism(7), identity_automorphism(4))
    parsed = parse_definition(H4_ALG.read_text(encoding="utf-8"))
    return {
        "tensor_yd": (lambda: tensor_yd(m, n), 1, 1),
        "conjugate_yd": (lambda: conjugate_yd(pair, n), 1, 1),
        "build_canonical_yd": (lambda: build_canonical_yd(h, h4_automorphism(3), h4_automorphism(5)), 1, 1),
        "trivial_yd": (lambda: trivial_yd(h), 1, 1),
        "build_h4_yd_table": (lambda: build_h4_yd_table("H4B", p, h=h), 1, 1),
        "ydmodule-section": (lambda: resolve_definition(parsed).of_kind("ydmodule")[0][1], 3, 3),
    }


@pytest.mark.parametrize("name", sorted(builders()))
def test_each_object_inverts_its_twist_once(name, monkeypatch):
    build, objects, inverts = builders()[name]
    counts = {"invert": 0, "objects": 0}
    invert, init = yd_modules.invert, YDModuleData.__init__

    def counting_invert(f):
        counts["invert"] += 1
        return invert(f)

    def counting_init(self, *args, **kwargs):
        counts["objects"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(yd_modules, "invert", counting_invert)
    monkeypatch.setattr(YDModuleData, "__init__", counting_init)
    yd = build()
    assert counts == {"invert": inverts, "objects": objects}
    assert yd.mu_inv is yd.comodule.mu_inv
    assert yd.action is yd.module.action and yd.coaction is yd.comodule.coaction
    assert (yd.mu @ yd.mu_inv).is_identity()


def test_differences_name_the_differing_pieces_in_order():
    p = H4Params(2, 3, 5)
    h = build_h4(p.c)
    m = build_h4_yd_table("H4A", p, h=h)
    assert m.differences(build_h4_yd_table("H4A", p, h=h)) == []
    retagged = YDModuleData(h, m.action, m.coaction, m.mu, AutPair(m.pair_b, m.pair_a),
                            basis=m.basis)
    assert m.differences(retagged) == ["component pair"]
    other = build_h4_yd_table("H4B", p, h=h)
    assert m.differences(other) == ["action", "component pair"]
    assert m.differences(trivial_yd(h)) == ["action", "coaction", "twist", "component pair"]
    assert not m.same_structure(other) and m.same_structure(m)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # the tracer wraps each target where it is defined: a function by
    # module attribute, a method through its class's own __dict__
    for module, targets in load_tracer().TARGETS.items():
        mod = importlib.import_module("homyd." + module)
        for _, attr in targets:
            if "." in attr:
                cls_name, meth = attr.split(".")
                assert meth in vars(getattr(mod, cls_name)).keys(), (module, attr)
            else:
                assert callable(getattr(mod, attr, None)), (module, attr)


def test_tracer_t_category_targets_run_in_tcat():
    # each t_category name the tracer counts is the function the tcat suite
    # calls, so none of them reads 0 calls in a tcat op
    definition = parse_definition(H4_ALG.read_text(encoding="utf-8"))
    profile = cProfile.Profile()
    profile.runcall(run_checks, definition, "tcat")
    calls = {key: stat[1] for key, stat in pstats.Stats(profile).stats.items()}
    for _, attr in load_tracer().TARGETS["t_category"]:
        code = getattr(t_category, attr).__code__
        assert calls.get((code.co_filename, code.co_firstlineno, code.co_name), 0) >= 1, attr


@pytest.mark.parametrize("name", sorted(builders()))
def test_tracer_structure_key_reads_every_builders_objects(name):
    build = builders()[name][0]
    key = load_tracer().Tracer()._structure_key(build())
    assert isinstance(key, int)
