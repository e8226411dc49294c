"""homyd benchmark: one run of one workload.

    python3 perfbench/run.py --workload tcat-h4 --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each op is one homyd CLI request (an .alg
file or a parameter point in; a verdict plus report or matrix bytes out),
executed in a fresh child interpreter as a closed loop with one client.
Every op's answer is checked against its known answer.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` a traced run reports the per-layer metrics instead.  The
lines before it print every metric by name, with its unit, including the
ones that are not gated (the tail percentile, items per CPU second and
the failed share).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from inputs import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

#: Fresh interpreters that only import homyd; their median is setup_s.
SETUP_PROBES = 9
#: Every run must end well inside three minutes.
DEADLINE_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail_percentile(values):
    """(p, value) for the highest percentile of the ladder with at least
    ten samples beyond it, or None when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            rank = max(1, -(-n * p // 100))  # nearest rank
            return p, ordered[int(rank) - 1]
    return None


def end_to_end(workload, result, setups):
    """Every end-to-end metric: (gated metrics, [(name, value, unit, note)])."""
    records = result["records"]
    done = [r for r in records if not r["failed"]]
    if not done:
        raise RuntimeError("no op completed: %s" % records[0]["reason"])
    cpu_total = sum(r["cpu_s"] for r in records)
    times = [r["cpu_s"] for r in done]
    gated = {
        "setup_s": (statistics.median(setups), "s"),
        "op_cpu_s.p50": (statistics.median(times), "s"),
        "ops_per_cpu_s": (len(done) / cpu_total, "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {"op_cpu_s.p50": "median of %d completed ops" % len(done)}
    shown = [(name, value, unit, notes.get(name, "")) for name, (value, unit) in gated.items()]
    tail = tail_percentile(times)
    if tail is None:
        shown.append(("op_cpu_s.tail", None, "s", "omitted: %d ops, fewer than 11" % len(done)))
    else:
        shown.append(("op_cpu_s.tail", tail[1], "s", "p%g of %d completed ops" % (tail[0], len(done))))
    if workload != "braid-sweep":
        shown.append(("items_per_cpu_s", sum(r["items"] for r in done) / cpu_total, "1/s", ""))
    failed = len(records) - len(done)
    shown.append(("failed_share", failed / len(records), "ratio", "%d of %d ops" % (failed, len(records))))
    return {k: {"value": v, "unit": u} for k, (v, u) in gated.items()}, shown


def result_line(records, metrics):
    """The last stdout line: `correct` is false when any op gave a wrong
    answer, an unexpected crash included (verdicts.py)."""
    return json.dumps({"correct": not any(r["wrong"] for r in records), "attempted": len(records),
                       "failed": sum(r["failed"] for r in records), "metrics": metrics})


def setup_times(env, deadline):
    """CPU seconds from interpreter start to the end of `import homyd`, in
    fresh interpreters, as {"raw", "scaled"}; the first one also compiles
    the bytecode cache and is not counted."""
    out = []
    for i in range(SETUP_PROBES + 1):
        proc = subprocess.run([sys.executable, WORKER, "--probe"], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError("import homyd failed:\n%s" % proc.stderr)
        if i:
            out.append(json.loads(proc.stdout))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "homyd", "cli.py")):
        print("error: no homyd sources under %s" % src, file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d-%s" % (args.workload, args.seed, args.trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    try:
        setups = setup_times(env, deadline)
        proc = subprocess.run(
            [sys.executable, WORKER, args.workload, str(args.seed), repr(args.seconds),
             args.trace, workdir],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        print("error: run exceeded %d s: %s" % (DEADLINE_S, exc.cmd[1:3]), file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("error: worker exited with %d:\n%s" % (proc.returncode, proc.stderr), file=sys.stderr)
        return 1
    result = json.loads(proc.stdout)
    setups.append({"raw": result["setup_raw_s"], "scaled": result["setup_s"]})
    records = result["records"]

    print("workload %s, seed %d, %d rounds, %d ops, %s" % (
        args.workload, args.seed, result["rounds"], len(records),
        "traced" if args.trace == "1" else "untraced"))
    for r in records:
        if r["failed"]:
            print("  failed op: %s (mutation %s): %s" % (" ".join(r["argv"]), r["mutation"], r["reason"]))
    try:
        metrics, shown = end_to_end(args.workload, result, [s["scaled"] for s in setups])
    except RuntimeError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    for name, value, unit, note in shown:
        text = "-" if value is None else "%.6g" % value
        print("  %-16s %12s %-5s %s" % (name, text, unit, note))
    done = [r for r in records if not r["failed"]]
    print("  times above are CPU seconds at the reference speed (calibrate.py)%s; raw: "
          "setup_s %.6g s, op_cpu_s.p50 %.6g s, ops_per_cpu_s %.6g 1/s" % (
              "" if result["scaled"] else ", except op times of this traced run",
              statistics.median(s["raw"] for s in setups),
              statistics.median(r["raw_cpu_s"] for r in done),
              len(done) / sum(r["raw_cpu_s"] for r in records)))
    if args.trace == "1":
        metrics = result["per_layer"]
        print("  per-layer metrics of one traced run (%d), spans in %s" % (
            len(metrics), os.path.relpath(os.path.join(workdir, "trace"), ROOT)))
        for name, m in metrics.items():
            print("  %-52s %14.6g %s" % (name, m["value"], m["unit"]))
    print(result_line(records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
