"""The known-answer checker must be able to fail: wrong answers, crashes,
bad bytes and bad matrices all count against the op."""

import json
import os
import random

import pytest

import inputs
import run as bench
import verdicts
import worker

from conftest import ROOT


@pytest.fixture
def variant(tmp_path):
    rng = random.Random(11)
    path = tmp_path / "v.alg"
    path.write_text(inputs.h4_family_text(*inputs.sample_point(rng)), encoding="utf-8")
    return str(path)


def test_generator_reproduces_the_shipped_file():
    with open(os.path.join(ROOT, inputs.SHIPPED_FILE), encoding="utf-8") as fh:
        assert inputs.h4_family_text(*inputs.SHIPPED_POINT) == fh.read()


def test_each_mutation_changes_one_line():
    text = inputs.h4_family_text(*inputs.SHIPPED_POINT)
    for m in inputs.MUTATIONS.values():
        changed = [(a, b) for a, b in zip(text.splitlines(), inputs.apply_mutation(text, m).splitlines())
                   if a != b]
        assert changed == [(m.old, m.new)], m.name


def _summary(records):
    result = {"records": records, "peak_rss_mb": 1.0}
    _, shown = bench.end_to_end("structure-sweep", result, [0.1])
    return {name: value for name, value, _, _ in shown}


def test_a_wrong_known_answer_counts_in_failed_share(variant):
    argv = ["check", variant, "--suite", "algebra", "--report", "json"]
    right = inputs.Op(argv, suite="algebra")
    wrong = inputs.Op(argv, 1, ("H4:eq-1.1",), suite="algebra")
    records = worker.run_ops([right, wrong])
    assert [r["failed"] for r in records] == [False, True]
    assert records[1]["wrong"] and "exit code 0, known answer 1" in records[1]["reason"]
    assert _summary(records)["failed_share"] == 0.5


def test_a_missing_failure_is_caught(variant, tmp_path):
    path = tmp_path / "m.alg"
    with open(variant, encoding="utf-8") as fh:
        path.write_text(inputs.apply_mutation(fh.read(), inputs.MUTATIONS["h4b-act-1g-2"]), encoding="utf-8")
    argv = ["check", str(path), "--suite", "yd", "--report", "text"]
    right = inputs.Op(argv, 1, ("H4B:module-unit",), "H4B", suite="yd")
    off_scope = inputs.Op(argv, 1, ("H4B:module-unit",), "H4A", suite="yd")
    absent = inputs.Op(argv, 1, ("H4A:module-unit",), suite="yd")
    records = worker.run_ops([right, off_scope, absent])
    assert [r["failed"] for r in records] == [False, True, True]
    assert "made H4B:" in records[1]["reason"]
    assert "H4A:module-unit must fail" in records[2]["reason"]


def test_golden_bytes_are_checked(variant):
    op = inputs.Op(["check", variant, "--suite", "algebra", "--report", "json"],
                   golden="0" * 64, suite="algebra")
    (record,) = worker.run_ops([op])
    assert record["wrong"] and "golden" in record["reason"]


def _invalid_structure():
    """An exception that reads as homyd's InvalidStructure to the checker,
    which knows exceptions by name only."""
    return type(verdicts.KNOWN_CRASH, (ValueError,), {})("eq-2.1")


def _crash_verdicts(op):
    return [verdicts.judge(op, None, ValueError("boom"), "", "", {}),
            verdicts.judge(op, 1, None, "", "Traceback (most recent call last):\n", {}),
            verdicts.judge(op, 3, None, "", "", {})]


def test_a_clean_op_that_crashes_makes_the_run_incorrect(variant):
    argv = ["check", variant, "--suite", "yd", "--report", "json"]
    op = inputs.Op(argv, suite="yd")
    for v in _crash_verdicts(op):
        assert v.failed and v.wrong and "unexpected crash" in v.reason
    v = verdicts.judge(op, None, _invalid_structure(), "", "", {})
    assert v.failed and v.wrong
    # a run whose yd ops all raise keeps only cheap ops in op_cpu_s.p50;
    # its result line must say it is not correct
    records = worker.run_ops([op])
    records.append(dict(records[0], failed=True, wrong=True))
    assert json.loads(bench.result_line(records, {}))["correct"] is False
    assert json.loads(bench.result_line(records[:1], {}))["correct"] is True


def test_only_the_known_crash_of_broken_hopf_data_is_not_wrong(tmp_path):
    maker = inputs.RoundMaker("tcat-h4", 1, str(tmp_path), {"tcat-json": "0" * 64})
    ops = maker.round(0)
    expected = [op for op in ops if op.may_crash]
    assert [inputs.MUTATIONS[op.mutation].hopf_data for op in expected] == [True]
    (op,) = expected
    v = verdicts.judge(op, None, _invalid_structure(), "", "", {})
    assert v.failed and not v.wrong
    # any other kind of crash of the same op is wrong
    for v in _crash_verdicts(op):
        assert v.wrong
    # the module-mutated op must not crash either
    (module_op,) = [op for op in ops if op.mutation == "h4a-coact-1-2"]
    assert not module_op.may_crash
    assert verdicts.judge(module_op, None, _invalid_structure(), "", "", {}).wrong


def test_the_hopf_mutated_tcat_op_crashes_as_known(tmp_path):
    maker = inputs.RoundMaker("tcat-h4", 1, str(tmp_path), {"tcat-json": "0" * 64})
    (op,) = [op for op in maker.round(0) if op.may_crash]
    (record,) = worker.run_ops([op])
    assert record["failed"] and not record["wrong"], record["reason"]
    assert "InvalidStructure" in record["reason"]


def test_braid_table_and_pair_equality():
    point = (inputs.Fraction(2), inputs.Fraction(3), inputs.Fraction(-3, 2))
    demo = inputs.Op(["demo", "h4", "--c=2", "--cp=3", "--cpp=-3/2", "--out", "json"],
                     point=point, pair_key="k")
    (ok,) = worker.run_ops([demo])
    assert not ok["failed"], ok["reason"]
    exit_code, exc, stdout, stderr, _, _ = worker.run_op(demo.argv)
    data = json.loads(stdout)
    emitted = {}
    assert not verdicts.judge(demo, exit_code, exc, stdout, stderr, emitted).failed
    # the emitted matrix is the transpose of the hand table: cell (3, 8)
    # of the table is matrix[7][2]
    assert inputs.Fraction(data["matrix"][7][2]) == point[1] - 1
    data["matrix"][7][2] = "5"
    v = verdicts.judge(demo, 0, None, json.dumps(data), "", {})
    assert v.wrong and "cell (3, 8)" in v.reason
    data["matrix"][7][2] = str(point[1] - 1)
    data["matrix"][0][0] = "-1" if data["matrix"][0][0] != "-1" else "1"
    v = verdicts.judge(demo, 0, None, json.dumps(data), "", emitted)
    assert v.wrong and "disagree" in v.reason


def test_speed_factor_window():
    import calibrate

    sampler = calibrate.SpeedSampler(calibrate.OP_INTERVAL_S)
    w = calibrate.WINDOW
    sampler.passes = [calibrate.NOMINAL_S] * w + [2 * calibrate.NOMINAL_S] * w
    # a short op is averaged over the WINDOW passes around it, clamped at
    # the ends of the run; a long one over its own passes
    assert sampler.factor(0, 1) == 1.0
    assert sampler.factor(2 * w - 1, 2 * w) == 0.5
    assert sampler.factor(0, 2 * w) == 0.75


def test_kernel_passes_are_not_charged_to_the_op(variant):
    import calibrate

    sampler = calibrate.SpeedSampler(0.001)
    sampler.start()
    try:
        result = worker.run_op(["check", variant, "--suite", "yd", "--report", "json"], sampler)
    finally:
        sampler.stop()
    first, last = result[5]
    assert result[0] == 0 and last > first
    assert 0 < result[4] and sampler.spent > 0


@pytest.mark.parametrize("report", ["json", "text"])
def test_shipped_all_report_matches_the_golden(report):
    import hashlib

    with open(os.path.join(os.path.dirname(verdicts.__file__), "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    argv = ["check", os.path.join(ROOT, inputs.SHIPPED_FILE), "--suite", "all", "--report", report]
    exit_code, exc, stdout, _, _, _ = worker.run_op(argv)
    assert exc is None and exit_code == 0
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == golden["all-" + report]
