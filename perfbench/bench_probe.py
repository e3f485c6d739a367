"""Reference probes: rescale op times to one host speed.

The benchmark shares a VM whose speed drifts in phases of 10 s to over a
minute; in a slow phase a pure-Python op takes up to 1.9x as long, and a
30 s run can fall wholly inside one phase, so no statistic of raw op times
within a run is steady across runs (NOTES.md has the measurements).

A probe is a fixed task that does not touch rbkernel and has the same mix
of work as one workload's op: scalar Python recurrences for ``identity``,
small dense SVDs for ``scan``, one large dense SVD for ``certify``.  It is
timed right before and right after each op, and the op time is multiplied
by ``ref_s / probe_s``, where ``ref_s`` is the probe's time in a fast phase
of the reference host.  The result is the op's time in seconds at that
speed: the host's phase cancels, a change to rbkernel does not.

A probe imports numpy only in :meth:`Probe.prepare`, so that building it
never runs inside the timed ``import rbkernel`` of set-up.
"""

from __future__ import annotations

import math
import time

__all__ = ["REFERENCE", "Probe", "probe_for"]


def _miller(order: int, x: float) -> float:
    """Scaled u_order(x) by downward recurrence over a Python list."""
    top = order + 20
    f = [0.0] * (top + 2)
    f[top] = 1e-300
    for k in range(top, 0, -1):
        f[k - 1] = (2 * k + 1) / x * f[k] - f[k + 1]
    return math.sin(x) / f[0] * f[order]


class Probe:
    """One workload's reference task and its time on the reference host."""

    def __init__(self, kind: str, ref_s: float):
        self.kind = kind
        self.ref_s = ref_s
        self._state = None

    def prepare(self) -> None:
        """Build the fixed inputs and run the task once, untimed."""
        import numpy as np

        rng = np.random.default_rng(0)
        if self.kind == "scalar":
            self._state = np.polynomial.legendre.leggauss(16)
        elif self.kind == "small_dense":
            nodes = np.linspace(0.1, 3.0, 192)
            self._state = ([np.eye(n) - rng.random((n, n)) / n for n in (96, 192)], nodes)
        elif self.kind == "dense":
            self._state = np.eye(768) - rng.random((768, 768)) / 768
        else:
            raise ValueError(f"unknown probe kind {self.kind!r}")
        self._run()

    def _run(self) -> None:
        import numpy as np

        if self.kind == "scalar":
            # Gauss panels over scalar recurrences, as in identity-check's quadrature
            x, w = self._state
            for p in range(36):
                a = 0.3 + 0.25 * p
                values = np.array([_miller(6, a + 0.125 * (t + 1.0)) for t in x])
                float(np.dot(w, values))
        elif self.kind == "small_dense":
            # the two SVD orders of scan's refinement, plus a vector recurrence on nodes
            matrices, nodes = self._state
            for matrix in matrices:
                np.linalg.svd(matrix)
            for order in (4, 8):
                f = np.zeros((order + 22, nodes.size))
                f[-1] = 1e-300
                for k in range(order + 20, 0, -1):
                    f[k - 1] = (2 * k + 1) / nodes * f[k] - f[k + 1]
        else:
            np.linalg.svd(self._state)

    def seconds(self) -> float:
        """Wall time of one run of the task."""
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start

    def to_reference(self, seconds: float, probe_s: float) -> float:
        """``seconds`` measured while the probe took ``probe_s``, at reference speed."""
        return seconds * self.ref_s / probe_s


# workload -> (probe kind, its fast-phase time on the reference host: a 2-core
# Xeon VM at 2.0 GHz, OpenBLAS 0.3.31, numpy 2.4.6, one BLAS thread).
REFERENCE = {
    "identity": ("scalar", 0.0040),
    "scan": ("small_dense", 0.0105),
    "certify": ("dense", 0.34),
}


def probe_for(workload: str) -> Probe:
    """A fresh, unprepared probe for ``workload``."""
    kind, ref_s = REFERENCE[workload]
    return Probe(kind, ref_s)
