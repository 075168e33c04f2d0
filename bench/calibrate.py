"""Machine-speed probe, for times that hold steady on a shared machine.

On the shared 2-core virtual machine the benchmark was built on, the
program's throughput drifted by up to 40% over minutes (eval-short medians
of 120 to 169 ms per item across ten consecutive runs of identical code),
which no amount of work inside one run averages away.  A fixed numpy kernel
drifts with it.  The harness times this probe before the first timed unit and
after every timed unit, scales each unit's wall time, and that of the
set-ups just before it, by ``REFERENCE_PROBE_S`` over the mean of the two
probes around them, and reports the medians.  Raw wall times are printed
and recorded beside the scaled ones, and README.md gives the spread of both
over the same runs.

The probe runs in a helper process of its own with one BLAS thread, and
only while the program is idle between units, so nothing the program does
to its own process (allocator state, BLAS pool, imports) reaches it.  It
uses numpy only, never the program, so a change to the program cannot move
it.

    python3 bench/calibrate.py     (helper mode: one probe per input line)
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# About the median probe time on the machine that recorded baseline.json, so
# that scaled times read close to wall times there.  Only ratios between runs
# on one machine matter, and the constant cancels in them.
REFERENCE_PROBE_S = 0.14


def _stack(channels: int, frames: int):
    """A fixed imitation of one TCN block at the given array shape:
    pointwise matmul, PReLU, normalisation, dilated taps, sigmoid."""
    import numpy as np

    rng = np.random.default_rng(0)
    weight = rng.standard_normal((channels, channels // 2))
    x = rng.standard_normal((channels // 2, frames))
    bias = rng.standard_normal((channels, 1))

    def run(repeats: int):
        for _ in range(repeats):
            y = weight @ x + bias
            z = np.where(y > 0, y, 0.25 * y)
            z = (z - z.mean(axis=1, keepdims=True)) / np.sqrt(
                z.var(axis=1, keepdims=True) + 1e-5)
            w = z[:, 2:] + z[:, :-2]
            1.0 / (1.0 + np.exp(-w))

    return run


def _serve():
    # Small arrays (call-overhead bound, like train-toy's layers) and long
    # frames (memory bound, like enhance-long's); about half the probe each.
    small, long = _stack(64, 62), _stack(256, 627)
    small(500)  # warm up, so the first probe is not slower than the rest
    long(14)
    for _ in sys.stdin:
        start = time.perf_counter()
        small(500)
        long(14)
        print(time.perf_counter() - start, flush=True)


class Probe:
    """The helper process.  ``probe()`` returns the wall seconds of one pass
    of the fixed kernels; use as a context manager so the helper is stopped."""

    def __init__(self):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self._proc = subprocess.Popen([sys.executable, __file__], env=env, text=True,
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def probe(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"probe helper exited with {self._proc.wait()}")
        return float(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


if __name__ == "__main__":
    _serve()
