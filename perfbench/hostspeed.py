"""Host-speed references: scale measured times to one fixed host speed.

On a share of a few cores of a busy host (measured on 2 x86_64 CPUs),
the speed a process gets drifts by up to about 1.9x for seconds to
minutes at a time, with no sign of it in the process's own CPU time.
Run-length medians cannot average such stretches out.  So the run loop
times a fixed reference between tasks, and each measured interval is
scaled by the reference's nominal time over the median of the reference
samples around it: those within ``NEAR_S`` of it, and always the ones
just before and just after it.  A scaled time reads as if the host ran
the reference in exactly its nominal time.

There are three references, each doing what the intervals it scales
spend their time on (``FOR_TASKS``), and none touching qcombs, so no
change to the package can move them:

* ``SMALL``: small complex numpy operations (``kron``, matrix products,
  ``einsum``, ``trace``, ``reshape``) between Python bookkeeping, in the
  benchmark process, as in ``characterize`` and ``cancel``.
* ``MIXED``: the same, then dense 256 x 256 complex matrix products on
  the BLAS threads, as in ``dilate``, whose time goes mostly to 512 x 512
  products.
* ``SPAWN``: a fresh interpreter that imports numpy.  It scales what
  starts a process: every ``cli`` task, and every set-up.
"""

from __future__ import annotations

import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
# Host speed regimes last seconds; a median over this reach on each side
# of an interval rides out the jitter of single samples.
NEAR_S = 1.5
SMALL_ROUNDS = 200  # about 10 ms on 2 x86_64 CPUs with scipy-openblas
GEMM_ROUNDS = 3     # about 15 ms there, on 2 BLAS threads

_M2 = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_M4 = np.kron(_M2, _M2.conj())
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))


def reference_small() -> float:
    acc = 0.0
    for _ in range(SMALL_ROUNDS):
        m = np.kron(_M2, _M2) @ _M4
        acc += float(np.einsum("ijij->", m.reshape(2, 2, 2, 2)).real) + float(np.trace(m).real)
        acc += sum({j: j * 0.5 for j in range(8)}.values())
    return acc


def reference_mixed() -> float:
    x = _A
    for _ in range(GEMM_ROUNDS):
        x = _A @ x @ _A.conj().T
        x /= np.abs(x).max()
    return reference_small() + float(x[0, 0].real)


def reference_spawn() -> None:
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=ROOT, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=120)


@dataclass(frozen=True)
class Reference:
    name: str
    run: object
    nominal_s: float  # scaled times read as if one sample took this long
    period_s: float   # at most this much loop time between samples


SMALL = Reference("small", reference_small, 0.010, 0.2)
MIXED = Reference("mixed", reference_mixed, 0.025, 0.3)
SPAWN = Reference("spawn", reference_spawn, 0.200, 1.0)
FOR_TASKS = {"characterize": SMALL, "cancel": SMALL, "dilate": MIXED, "cli": SPAWN}


class HostSpeed:
    """Samples of one reference taken during a run, on the ``time.perf_counter`` clock."""

    def __init__(self, ref: Reference):
        self.ref = ref
        self.times: list[float] = []  # midpoint of each sample
        self.durations: list[float] = []
        ref.run()  # warm caches; not recorded

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.ref.run()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)

    def due(self, t: float) -> bool:
        return not self.times or t - self.times[-1] >= self.ref.period_s

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` scaled to reference speed by the samples around it."""
        before = bisect_right(self.times, start) - 1
        after = bisect_left(self.times, end)
        lo = max(min(before, bisect_left(self.times, start - NEAR_S)), 0)
        hi = max(after + 1, bisect_right(self.times, end + NEAR_S))
        near = self.durations[lo:hi]
        if not near:
            raise ValueError("no reference sample")
        return (end - start) * self.ref.nominal_s / median(near)

    def median_ms(self) -> float:
        return median(self.durations) * 1e3
