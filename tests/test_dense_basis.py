"""The verdicts are basis-invariant: h4.alg at c = -3/2 and its transport
to a seeded dense basis (transport.py) give the same verdict on every law.
The dense maps take the general and left-whisker compose paths that the
monomial shipped file barely reaches, so this is a second computation of
every law the kernel decides."""

from pathlib import Path

from homyd.defformat import parse_definition, resolve_definition, run_checks
from homyd.hom_algebra import check_hom_hopf
from homyd.yd_modules import check_yd_module
from transport import transport

ROOT = Path(__file__).resolve().parent.parent


def verdicts(report):
    return [(item.identity, item.law, item.passed) for item in report.items]


def test_dense_transport_of_the_twisted_file_keeps_every_verdict():
    text = (ROOT / "h4.alg").read_text(encoding="utf-8")
    assert text.count("c = 1\n") == 1
    monomial = resolve_definition(parse_definition(text.replace("c = 1\n", "c = -3/2\n")))
    dense = transport(monomial, seed=1)
    (_, h), (_, dh) = monomial.get("H4"), dense.get("H4")
    # the transport is dense where the original is monomial
    assert sum(map(bool, dh.algebra.mul.entries)) > 2 * sum(map(bool, h.algebra.mul.entries))
    assert verdicts(check_hom_hopf(dh)) == verdicts(check_hom_hopf(h))
    for name, (kind, yd) in monomial.objects.items():
        if kind == "ydmodule":
            assert verdicts(check_yd_module(dense.get(name)[1])) == verdicts(check_yd_module(yd))
    want = verdicts(run_checks(monomial, "tcat"))
    assert len(want) == 420 and all(passed for _, _, passed in want)
    assert verdicts(run_checks(dense, "tcat")) == want
