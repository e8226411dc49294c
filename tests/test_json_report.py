"""The JSON report writer is the dict form of a report, dumped by json.

``render_json_report`` fills one template per item; ``report_to_dict`` here
is the dict form it must spell out, and ``json.dumps(..., indent=2)`` of
that dict is the oracle for every byte.  The reports are every suite's on
``h4.alg`` at two twist points, every perfbench mutation at both points,
the ``witness_golden`` corruptions and a ``dim: 0`` algebra.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from homyd.cli import render_json_report
from homyd.defformat import SUITES, parse_definition, run_checks
from test_witness_golden import all_reports
from test_yd_modules import load_bench_inputs

ROOT = Path(__file__).resolve().parent.parent
INPUTS = load_bench_inputs()


def report_to_dict(report):
    items = []
    for item in report.items:
        entry = {
            "id": item.identity,
            "paper_ref": item.law,
            "status": "pass" if item.passed else "fail",
        }
        if item.witness is not None:
            entry["witness"] = {
                "inputs": list(item.witness.inputs),
                "labels": list(item.witness.labels),
                "lhs": [str(x) for x in item.witness.lhs],
                "rhs": [str(x) for x in item.witness.rhs],
            }
        items.append(entry)
    return {"suite": report.suite, "seed": report.seed, "items": items}


def assert_oracle(report):
    assert render_json_report(report) == json.dumps(report_to_dict(report), indent=2) + "\n"


def shipped_texts():
    text = (ROOT / "h4.alg").read_text(encoding="utf-8")
    return {"c = 1": text, "c = -3/2": text.replace("c = 1\n", "c = -3/2\n", 1)}


@pytest.mark.parametrize("point", sorted(shipped_texts()))
@pytest.mark.parametrize("suite", SUITES)
def test_every_suite_on_the_shipped_file(point, suite):
    report = run_checks(parse_definition(shipped_texts()[point]), suite, seed=3)
    assert report.ok() and report.items and report.seed == 3
    assert_oracle(report)


def test_every_mutation_at_both_points():
    scalars = []
    for text in shipped_texts().values():
        for mutation in INPUTS.MUTATIONS.values():
            df = parse_definition(INPUTS.apply_mutation(text, mutation))
            for suite in mutation.breaks:
                report = run_checks(df, suite)
                assert not report.ok()
                assert_oracle(report)
                scalars += [Fraction(x) for item in report.failures() if item.witness
                            for x in item.witness.lhs + item.witness.rhs]
    # the witnesses hold negative and non-integral rationals
    assert any(x < 0 for x in scalars) and any(x.denominator != 1 for x in scalars)


def test_witness_golden_reports():
    for report in all_reports().values():
        assert_oracle(report)


def test_dim_zero_algebra():
    report = run_checks(parse_definition("[algebra A]\ndim: 0\nunit: 0\n"), "all")
    assert_oracle(report)
    assert_oracle(run_checks(parse_definition("[algebra A]\ndim: 0\nunit: 0\n"), "algebra", seed=-1))
