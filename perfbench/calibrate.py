"""Calibration loops that time how fast the host runs just now.

    python3 perfbench/calibrate.py LOOP[,LOOP...]

Each line read from stdin holds a repeat count.  The answer is one line: the
host's slowdown, the geometric mean over the named LOOPs of each loop's median
time over its reference time.  Nothing here depends on podreadout, so a change
to the program cannot move these times.

The loops run in this process, not in the benchmark's own: a child's peak RSS
as wait4 reports it is at least its parent's, so the parent stays small.
"""

import math
import statistics
import sys
import time

import numpy


def interpreter():
    """Interpreter and small-array numpy work, as in the flow solver's loop."""
    t0 = time.perf_counter()
    table = {}
    for i in range(80_000):
        table[i % 977] = table.get(i % 977, 0) + 3 * i
    a = numpy.linspace(0.5, 1.5, 1024).reshape(32, 32)
    for _ in range(2000):
        a = a[1:-1, 1:-1].sum() + 0.5 * a
        a = numpy.abs(a) / a.max()
    return time.perf_counter() - t0


_RNG = numpy.random.default_rng(0)
_VEC = _RNG.standard_normal(65536)
_TALL = _RNG.standard_normal((16384, 16))


def arrays():
    """LAPACK, sort and FFT on 2^16-entry arrays, as in the bond search and readout."""
    t0 = time.perf_counter()
    for _ in range(2):
        numpy.linalg.svd(_TALL, full_matrices=False)
        numpy.sort(_VEC * 1.0001)
        numpy.fft.rfft(_VEC)
    return time.perf_counter() - t0


# Median time of each loop on a quiet 2-core Xeon KVM guest (Python 3.11,
# NumPy 2, one BLAS thread); they only fix the unit of the slowdown.
LOOPS = {"interpreter": (interpreter, 0.05), "arrays": (arrays, 0.018)}


def slowdown(names, repeats):
    logs = []
    for name in names:
        loop, ref_s = LOOPS[name]
        logs.append(math.log(statistics.median(loop() for _ in range(repeats)) / ref_s))
    return math.exp(sum(logs) / len(logs))


def main(argv):
    names = argv[0].split(",")
    unknown = [n for n in names if n not in LOOPS]
    if unknown:
        print(f"unknown calibration loops: {unknown}", file=sys.stderr)
        return 2
    for line in sys.stdin:
        print(repr(slowdown(names, int(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
