"""One benchmark run in a fresh interpreter: import homyd, then run whole
rounds of ops as a closed loop (one client, no threads) and check every
op's answer.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

``--probe`` stops after the import and prints its CPU time, raw and
scaled to the reference speed (see calibrate.py).  A run prints one JSON
document with the per-op records and, when traced, the per-layer metrics.
homyd must be importable (run.py puts ``src`` on PYTHONPATH).

Untraced runs scale every op's CPU time to the reference speed.  Traced
runs do not sample the speed, because kernel passes landing inside spans
would be charged to the layers, so they report raw CPU.
"""

import time

_start = time.thread_time()
import calibrate  # noqa: E402  (gc, math, signal, time: nothing homyd imports later)

_sampler = calibrate.SpeedSampler(calibrate.IMPORT_INTERVAL_S)
_harness = time.thread_time() - _start
_sampler.start()
import homyd.cli  # noqa: E402  setup_s ends here: the CPU every CLI invocation pays

_sampler.stop()
#: CPU from interpreter start to the end of the import, less the harness's
#: own import and kernel passes; thread CPU is process CPU here, before any
#: thread exists.
SETUP_RAW_S = time.thread_time() - _harness - _sampler.spent
SETUP_PASSES = _sampler.passes

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import inputs  # noqa: E402
import verdicts  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def cpu_s():
    """CPU seconds of this single-threaded process, plus the CPU of any
    waited-for child process.  The thread clock keeps nanosecond resolution
    while the sampling timer is armed; the process clock does not."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.thread_time() + ch.ru_utime + ch.ru_stime


def run_op(argv, sampler=None):
    """Call the CLI in-process; (exit code, exception, stdout, stderr, cpu s,
    kernel passes taken meanwhile).  Kernel CPU is not counted."""
    out, err = io.StringIO(), io.StringIO()
    exit_code = exc = None
    first, spent = (len(sampler.passes), sampler.spent) if sampler else (0, 0.0)
    start = cpu_s()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            exit_code = homyd.cli.main(argv)
    except SystemExit as stop:  # argparse usage errors
        exit_code = stop.code
    except Exception as raised:  # an op that raises is a failed op, not a dead run
        exc = raised
    cpu = cpu_s() - start
    passes = (first, first)
    if sampler is not None:
        cpu -= sampler.spent - spent
        passes = (first, len(sampler.passes))
    return exit_code, exc, out.getvalue(), err.getvalue(), cpu, passes


def run_ops(ops, tracer=None, first_id=0, sampler=None):
    """Run and judge ops in order; one record per op."""
    records = []
    emitted = {}
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(first_id + i)
        exit_code, exc, stdout, stderr, cpu, passes = run_op(op.argv, sampler)
        if tracer is not None:
            tracer.end_op()
            tracer.counts["cli.main.bytes_out"] += len(stdout.encode("utf-8"))
        v = verdicts.judge(op, exit_code, exc, stdout, stderr, emitted)
        records.append({"raw_cpu_s": cpu, "cpu_s": cpu, "passes": passes, "exit": exit_code,
                        "failed": v.failed, "wrong": v.wrong, "reason": v.reason, "items": v.items,
                        "argv": op.argv[:1] + op.argv[2:], "mutation": op.mutation})
    return records


def setup_s():
    """(raw, scaled) setup CPU of this interpreter, scaled by the kernel
    passes taken while homyd imported."""
    extra = max(0, calibrate.IMPORT_PASSES - len(SETUP_PASSES))
    passes = SETUP_PASSES + [calibrate.kernel_pass() for _ in range(extra)]
    return SETUP_RAW_S, SETUP_RAW_S * calibrate.speed_factor(passes)


def main(argv):
    if argv == ["--probe"]:
        raw, scaled = setup_s()
        print(json.dumps({"raw": raw, "scaled": scaled}))
        return 0
    workload, seed, seconds, trace, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    maker = inputs.RoundMaker(workload, seed, workdir, golden)
    setup_raw, setup_scaled = setup_s()
    tracer = sampler = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    else:
        sampler = calibrate.SpeedSampler(calibrate.OP_INTERVAL_S)
        sampler.passes += [calibrate.kernel_pass() for _ in range(calibrate.WINDOW // 2)]
        sampler.start()
    records = []
    rounds = 0
    wall_start = time.monotonic()
    while True:
        ops = maker.round(rounds)
        records += run_ops(ops, tracer, len(records), sampler)
        rounds += 1
        if trace:
            if rounds >= inputs.TRACE_ROUNDS[workload]:
                break
        elif time.monotonic() - wall_start >= seconds:
            break
    if sampler is not None:
        sampler.stop()
        sampler.passes += [calibrate.kernel_pass() for _ in range(calibrate.WINDOW // 2)]
    for r in records:
        passes = r.pop("passes")
        if sampler is not None:
            r["cpu_s"] = r["raw_cpu_s"] * sampler.factor(*passes)
    result = {"setup_s": setup_scaled, "setup_raw_s": setup_raw, "rounds": rounds,
              "records": records, "scaled": sampler is not None,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.uninstall()
        result["per_layer"] = tracer.metrics()
        tracer.write(os.path.join(workdir, "trace"))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
