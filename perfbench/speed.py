"""Host-speed sampling: a fixed reference kernel timed throughout each measurement.

The benchmark's host shares its cores with other tenants.  The same work
takes up to 1.7x longer in busy phases lasting from seconds to minutes,
which is more than any bound a regression check could use.  So while a
measured interval runs, a SIGALRM handler times a ~3 ms reference kernel
every ``INTERVAL_S`` on the measured thread itself, seeing the host speed
the measured code sees.  The interval is then reported at the reference
speed, at which the kernel takes ``KERNEL_REF_S``:

    t_ref = (t - time spent in the handler) * KERNEL_REF_S / mean kernel time

The kernel mimics the program's two hot paths: complex sparse mat-vecs on
the 6561-dimensional Liouville space and the small einsum/matmul steps of
the 81-setting MLE.  It belongs to the benchmark, so no change to the
program can change it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp

# kernel duration at the reference host speed: its median on the 2-vCPU
# host the benchmark was defined on
KERNEL_REF_S = 0.0035
INTERVAL_S = 0.1

_DIM = 6561
_MATVECS = 4
_MLE_STEPS = 4


class SpeedSampler:
    def __init__(self):
        rng = np.random.default_rng(20261017)
        self._l = sp.random(_DIM, _DIM, density=0.002, format="csr", random_state=rng).astype(complex)
        self._v = rng.standard_normal(_DIM) + 1j * rng.standard_normal(_DIM)
        self._e = rng.standard_normal((729, 9, 9)) + 1j * rng.standard_normal((729, 9, 9))
        self._w = rng.random(729)
        self.samples: list[float] = []
        self._kernel()  # warm caches and first-call paths

    def _kernel(self):
        v = self._v
        for _ in range(_MATVECS):
            v = self._l @ v
            v /= np.abs(v).max()
        rho = np.eye(9, dtype=complex) / 9
        eye = np.eye(9)
        for _ in range(_MLE_STEPS):
            p = np.einsum("kij,ji->k", self._e, rho).real
            r = np.einsum("k,kij->ij", self._w / (np.abs(p) + 1.0), self._e) / 81
            a = eye + 0.5 * r
            rho = a @ rho @ a.conj().T
            rho /= np.trace(rho).real

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> dict:
        """Handler time and mean kernel time of the samples taken after ``mark``."""
        taken = self.samples[mark:]
        return {
            "samples": len(taken),
            "busy_s": sum(taken),
            # an interval too short for a sample gets the latest ones
            "kernel_s": statistics.fmean(taken or self.samples[-10:] or [KERNEL_REF_S]),
        }


def at_reference_speed(seconds: float, speed: dict) -> float:
    """An interval's host ``seconds``, less its sampling, at the reference speed.

    ``speed`` is what ``SpeedSampler.since`` returned for the interval.
    """
    return (seconds - speed["busy_s"]) * KERNEL_REF_S / speed["kernel_s"]
