"""A fixed reference kernel that tracks the speed of the shared machine.

The machine the benchmark runs on shares its cores with other tenants, and
its speed drifts by 10 to 60 percent for minutes at a time.  Every run
therefore times this kernel between items: four pieces of a few ms each,
of the kinds of work the workloads do (interpreter loops, small numpy calls,
LAPACK, tensor contractions), on fixed inputs and without entkit.  A change
to entkit cannot move it; a slow stretch of the machine moves it with the
workload.

A run reports its round time scaled by ``REFERENCE_S`` over the kernel's
mean time in that run, that is, in seconds of a machine that runs the kernel
in ``REFERENCE_S``.  12 ms is about its time on a quiet 2-vCPU Xeon VM with
one BLAS thread.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.012
#: Seconds between two samples of the kernel, at least.
EVERY_S = 0.5


class Reference:
    """Times the kernel at most once every ``EVERY_S`` seconds of run time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.samples: list[tuple[float, ...]] = []
        z = rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8))
        self._vecs = z / np.linalg.norm(z, axis=1, keepdims=True)
        m = rng.standard_normal((128, 128))
        self._sym = m + m.T
        self._tensor = rng.standard_normal((2,) * 8) + 1j * rng.standard_normal((2,) * 8)
        self._factor = np.array([0.6, 0.8j])
        self.sample()  # first calls into numpy and LAPACK; not kept
        self.samples.clear()

    def _interpreter(self) -> None:
        acc, table = 0, {}
        for i in range(25_000):
            acc = (acc + i * i) % 1_000_003
            table[i & 127] = acc

    def _small_numpy(self) -> None:
        for v in self._vecs:
            t = v.reshape(2, 2, 2)
            for k in range(3):
                m = np.moveaxis(t, k, 0).reshape(2, 4)
                r = m @ m.conj().T
                np.trace(r @ r)
            np.linalg.det(t[0] + t[1])

    def _lapack(self) -> None:
        for _ in range(2):
            np.linalg.eigvalsh(self._sym)

    def _contraction(self) -> None:
        for _ in range(60):
            v = self._tensor
            for _ in range(7):
                v = np.tensordot(self._factor, v, axes=(0, 0))

    PIECES = ("_interpreter", "_small_numpy", "_lapack", "_contraction")

    def sample(self) -> None:
        """Run the kernel once and keep the times of its pieces."""
        times = []
        for name in self.PIECES:
            t0 = time.perf_counter()
            getattr(self, name)()
            times.append(time.perf_counter() - t0)
        self._last = time.perf_counter()
        self.samples.append(tuple(times))

    def maybe_sample(self) -> float:
        """Sample if none is kept yet or ``EVERY_S`` has passed since the last one.

        Returns the seconds spent.
        """
        if self.samples and time.perf_counter() - self._last < EVERY_S:
            return 0.0
        t0 = time.perf_counter()
        self.sample()
        return time.perf_counter() - t0

    def totals(self) -> list[float]:
        return [sum(s) for s in self.samples]
