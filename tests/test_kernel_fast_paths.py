"""The integer-first kernel over a whole crossed-category run.

Every map built while ``run_checks(h4.alg, "tcat")`` runs, at the shipped
point and at the twisted point c = -3/2, and then on a copy with g g = -1,
whose tensor-assoc and eq-3.5 items take the full comparison, and on one
with an act: cell of H4A changed, whose pair items build their pair
tensors, braiding targets and conjugates ^MN, is inspected: it stores int
numerators over a positive denominator no larger than exactlin's bound,
it equals and hashes as its lowest terms, and its entries read back as
ints or Fractions, never floats.  Each map is recorded as it is built, a
whisker as kron makes it, and inspected once the run is over, when reading
a whisker builds the columns it did not build during the run.  Every
Yetter-Drinfeld object of the run is recorded too, and the twist inverse
its constructor computed is compared with a fresh inverse of its twist
and with the dense Gauss-Jordan reference.
A clean tcat op reduces no product to lowest terms, and a yd check of
h4.alg, whose twists and component automorphisms are all diagonal, runs
Gauss-Jordan elimination once, for the antipode.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dense_reference as dense
import homyd.exactlin as exactlin
from homyd.cli import main
from homyd.defformat import parse_definition, run_checks
from homyd.exactlin import LinearMap, invert
from homyd.yd_modules import YDModuleData

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", params=["1", "-3/2"], ids=["shipped", "twisted"])
def tcat_run(request):
    """(types stored, types of the stored entries read back, one flag per
    map built telling whether it is in the kernel's form, YD objects built,
    number of whiskers made) over the tcat runs of h4.alg with c bound
    to the parameter, of its copy with g g = -1, where no certificate
    decides tensor-assoc or eq-3.5, and of its copy with H4A's x.1 = c cp
    gx, where no tensor-component certificate of a pair with H4A holds;
    cp = 2 and cpp = 3 give the component pairs inverses with denominators
    at either point."""
    text = (ROOT / "h4.alg").read_text(encoding="utf-8").replace("c = 1\n", "c = %s\n" % request.param)
    assert text.count("mul: g g -> 1\n") == 1
    assert text.count("act: x 1 -> c * (cp - 1) * gx\n") == 1
    texts = (text, text.replace("mul: g g -> 1\n", "mul: g g -> -1\n"),
             text.replace("act: x 1 -> c * (cp - 1) * gx\n", "act: x 1 -> c * cp * gx\n"))
    stored, read, maps, objects, built, whiskers = set(), set(), [], [], [], []
    from_columns, whisker_map = exactlin._from_columns, exactlin._whisker_map
    init, yd_init = LinearMap.__init__, YDModuleData.__init__

    def seen(f):
        built.append(f)
        return f

    def checked_init(self, *args):
        init(self, *args)
        seen(self)

    def recording_init(self, *args, **kwargs):
        yd_init(self, *args, **kwargs)
        objects.append(self)

    def recording_whisker_map(*args):
        f = whisker_map(*args)
        whiskers.append(f)
        return f

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlin, "_from_columns", lambda rows, columns, den: seen(from_columns(rows, columns, den)))
        mp.setattr(exactlin, "_whisker_map", recording_whisker_map)
        mp.setattr(LinearMap, "__init__", checked_init)
        mp.setattr(YDModuleData, "__init__", recording_init)
        for text in texts:
            run_checks(parse_definition(text), "tcat")
    for f in built + whiskers:
        stored.update(type(n) for col in f._cols for n in col.values())
        stored.add(type(f._den))
        read.update(type(f.entry(i, j)) for j, col in enumerate(f._cols) for i in col)
        low = exactlin._reduced(f.rows, f._cols, f._den)
        maps.append(0 < f._den <= exactlin._BOUND and f == low and hash(f) == hash(low))
    return stored, read, maps, objects, len(whiskers)


def test_every_map_holds_only_exact_scalars(tcat_run):
    stored, read, maps, _, whiskers = tcat_run
    assert len(maps) > 1000 and whiskers > 1000
    assert stored == {int}
    assert read == {int, Fraction}


def test_every_map_stores_a_positive_denominator_under_the_bound(tcat_run):
    maps = tcat_run[2]
    assert all(maps)


def test_every_object_holds_the_inverse_of_its_twist(tcat_run):
    objects = tcat_run[3]
    assert len(objects) == 100
    for yd in objects:
        assert yd.mu_inv == invert(yd.mu) == dense.invert(yd.mu)
        assert (yd.mu @ yd.mu_inv).is_identity()
        assert yd.comodule.mu_inv is yd.mu_inv


@pytest.mark.parametrize("point", ["1", "-3/2"], ids=["shipped", "twisted"])
def test_a_clean_tcat_op_reduces_no_product(monkeypatch, point):
    # the op's thousands of products stay over the products of their
    # operands' denominators, none of which passes the bound, and no report
    # item hashes a map
    calls = []
    reduced = exactlin._reduced

    def counted(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return reduced(*args)

    monkeypatch.setattr(exactlin, "_reduced", counted)
    text = (ROOT / "h4.alg").read_text(encoding="utf-8").replace("c = 1\n", "c = %s\n" % point)
    report = run_checks(parse_definition(text), "tcat")
    assert report.ok() and len(report.items) > 400
    assert calls == []


def test_a_yd_check_eliminates_once_for_the_antipode(monkeypatch, capsys):
    # every twist and component automorphism of h4.alg is diagonal and is
    # inverted in closed form, and check_automorphism reads the inverse a
    # HopfAutomorphism holds; the antipode alone needs Gauss-Jordan
    eliminated = []
    gauss_jordan = exactlin._gauss_jordan

    def counted(f):
        eliminated.append(f)
        return gauss_jordan(f)

    monkeypatch.setattr(exactlin, "_gauss_jordan", counted)
    assert main(["check", str(ROOT / "h4.alg"), "--suite", "yd"]) == 0
    capsys.readouterr()
    assert len(eliminated) == 1
    [s] = eliminated
    assert s._diag is None and (s @ s @ s @ s).is_identity() and not (s @ s).is_identity()
