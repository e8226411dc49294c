"""Machine-speed calibration for CPU timings on a shared machine.

On a shared host the CPU time of a fixed piece of work is not fixed: as
other tenants load the cores and caches, the same tcat op takes from 5.3 s
to 9.7 s of CPU within two minutes, and the speed flips between a fast
and a slow state many times a second.  The benchmark therefore measures
the speed *while* the program runs: a SIGPROF timer interrupts the process
every so many milliseconds of CPU and runs one pass of a fixed kernel
(Gauss-Jordan elimination over exact rationals on a fixed 10x10 matrix, the
same kind of work homyd does).  A measured CPU time is scaled by the mean
of NOMINAL_S / (pass time) over the passes taken while it ran, so it reads
as CPU seconds on a machine where one pass takes NOMINAL_S.  The mean of
the ratios, not the ratio of the median, is what tracks a speed that flips
between two states.  The passes' own CPU is subtracted from what they
interrupted.

The kernel is part of the benchmark, identical on every commit measured,
so a change to homyd cannot move it.  A pass runs with the cyclic garbage
collector off: a collection it set off would walk homyd's live heap, and
that work would be both subtracted from the op and counted as a slower
machine.  Collections homyd's own allocations are due stay in the op.
This module imports only ``gc``, ``math``, ``signal`` and ``time``, so it
can sample the interpreter while it imports homyd without loading anything
homyd's import would otherwise pay for.
"""

import gc
import math
import signal
import time

#: Kernel CPU seconds at the reference speed: about the fast state of the
#: 2-core Xeon the baseline was measured on.
NOMINAL_S = 0.001
#: CPU seconds between two passes while an op runs, and while homyd imports.
OP_INTERVAL_S = 0.02
IMPORT_INTERVAL_S = 0.015
#: Fewest passes an op's speed is averaged over; short ops borrow passes
#: taken just before and after them.  Small is better: the speed flips
#: within a second, and on structure-sweep a window of 4 passes gave a
#: third of the run-to-run spread of a window of 32.
WINDOW = 4
#: Fewest passes the import's speed is averaged over; a fast import is
#: topped up with passes taken right after it.
IMPORT_PASSES = 8

_N = 10


def _matrix():
    """Fixed matrix of small rationals (num, den) from a fixed LCG."""
    state, rows = 20140601, []
    for _ in range(_N):
        row = []
        for _ in range(_N):
            state = (state * 1103515245 + 12345) % 2 ** 31
            num, den = state % 11 - 5, state // 11 % 4 + 1
            g = math.gcd(num, den)
            row.append((num // g, den // g))
        rows.append(row)
    return rows


_M = _matrix()


def _sub_mul(x, f, y):
    """x - f*y on reduced (num, den) pairs."""
    num = x[0] * f[1] * y[1] - f[0] * y[0] * x[1]
    den = x[1] * f[1] * y[1]
    g = math.gcd(num, den)
    return (num // g, den // g)


def _div(x, p):
    num, den = x[0] * p[1], x[1] * p[0]
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return (num // g, den // g)


def _kernel():
    a = [row[:] for row in _M]
    for c in range(_N):
        p = next(r for r in range(c, _N) if a[r][c][0])
        a[c], a[p] = a[p], a[c]
        pivot = a[c][c]
        a[c] = [_div(x, pivot) for x in a[c]]
        for r in range(_N):
            f = a[r][c]
            if r != c and f[0]:
                a[r] = [_sub_mul(x, f, y) for x, y in zip(a[r], a[c])]
    return a


def kernel_pass():
    """CPU seconds of one kernel pass (thread CPU clock: the process CPU
    clock drops to tick resolution while a SIGPROF timer is armed), with
    the cyclic garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        _kernel()
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(passes):
    """Factor converting CPU seconds measured alongside these kernel passes
    into reference-speed seconds."""
    return math.fsum(NOMINAL_S / s for s in passes) / len(passes)


class SpeedSampler:
    """Runs one kernel pass every `interval` seconds of CPU while started."""

    def __init__(self, interval):
        self.interval = interval
        self.passes = []
        self.spent = 0.0    # CPU seconds the passes took

    def _on_signal(self, signum, frame):
        d = kernel_pass()
        self.passes.append(d)
        self.spent += d

    def start(self):
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def factor(self, first, last):
        """Speed factor for the passes [first, last) taken during one op,
        widened around their middle to at least WINDOW passes."""
        n = len(self.passes)
        if last - first < WINDOW:
            mid = (first + last) // 2
            first = max(0, min(mid - WINDOW // 2, n - WINDOW))
            last = min(n, first + WINDOW)
        return speed_factor(self.passes[first:last])
