"""The outside-in tracer sees every call, changes no output byte, and its
computed counters repeat exactly."""

import cProfile
import hashlib
import json
import os
import subprocess
import sys

import pytest

import homyd
import tracer as tracing
import worker

from conftest import BENCH, ROOT

SHIPPED_TCAT = ["check", os.path.join(ROOT, "h4.alg"), "--suite", "tcat", "--report", "json"]


def _originals():
    """(metric name, code object) of every traced function."""
    out = []
    for module, targets in tracing.TARGETS.items():
        mod = getattr(homyd, module)
        for fname, attr in targets:
            obj = mod
            for part in attr.split("."):
                obj = getattr(obj, part)
            out.append(("%s.%s" % (module, fname), obj.__code__))
    return out


def _traced_op(argv, profile=None):
    originals = _originals()
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.begin_op(0)
        if profile is not None:
            profile.enable()
        result = worker.run_op(argv)
        if profile is not None:
            profile.disable()
        tr.end_op()
    finally:
        tr.uninstall()
    return originals, tr, result


def _computed(metrics):
    return {k: v["value"] for k, v in metrics.items() if not k.endswith("self_s")}


@pytest.fixture(scope="module")
def tcat_traced():
    profile = cProfile.Profile()
    return _traced_op(SHIPPED_TCAT, profile) + (profile,)


def test_call_counts_equal_cprofile(tcat_traced):
    originals, tr, _, profile = tcat_traced
    profiled = {}
    for entry in profile.getstats():
        profiled[entry.code] = profiled.get(entry.code, 0) + entry.callcount
    metrics = tr.metrics()
    checked = 0
    for name, code in originals:
        assert metrics[name + ".calls"]["value"] == profiled.get(code, 0), name
        checked += profiled.get(code, 0) > 0
    assert checked >= 30


def test_traced_bytes_equal_untraced(tcat_traced):
    _, _, (exit_code, exc, stdout, _, _, _), _ = tcat_traced
    assert exc is None and exit_code == 0
    plain = worker.run_op(SHIPPED_TCAT)
    assert plain[0] == 0 and plain[2] == stdout
    with open(os.path.join(BENCH, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == golden["tcat-json"]


def test_tcat_counters_repeat(tcat_traced):
    _, first, _, _ = tcat_traced
    _, second, _ = _traced_op(SHIPPED_TCAT)
    assert _computed(first.metrics()) == _computed(second.metrics())
    assert first.metrics()["exactlin.compose.mults"]["value"] > 0


def _bindings():
    mods = [m for name, m in sys.modules.items() if name.startswith("homyd")]
    classes = [homyd.LinearMap, homyd.HopfAutomorphism, homyd.YDModuleData]
    return [dict(vars(m)) for m in mods] + [dict(vars(c)) for c in classes]


def test_uninstall_restores_every_binding():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install()
    assert _bindings() != before
    tr.uninstall()
    assert _bindings() == before


def _traced_run(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", ["structure-sweep", "braid-sweep"])
def test_traced_runs_repeat_their_counters(workload):
    first, second = _traced_run(workload, 5), _traced_run(workload, 5)
    assert set(first) == set(tracing.metric_units())
    assert _computed(first) == _computed(second)


def test_run_fails_without_the_program(tmp_path):
    import shutil

    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "braid-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
