"""Floating-point quantum-walk oracle.

Transfer amplitudes via dense symmetric eigendecomposition; used to validate
every algebraic PST verdict.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .graphs import Graph

if TYPE_CHECKING:  # pragma: no cover
    from .pst import PstCertificate


@lru_cache(maxsize=4096)
def _eigendecomposition(G: Graph) -> tuple[np.ndarray, np.ndarray]:
    A = np.array([[float(w) for w in row] for row in G.adjacency_rows()])
    evals, evecs = np.linalg.eigh(A)
    return evals, evecs


def amplitude(G: Graph, i: int, j: int, t: float) -> complex:
    """<j| exp(itA) |i>"""
    evals, evecs = _eigendecomposition(G)
    return complex(np.sum(np.exp(1j * t * evals) * evecs[i] * evecs[j]))


def fidelity(G: Graph, i: int, j: int, t: float) -> float:
    if t < 0:
        raise ValueError("time must be nonnegative")
    return abs(amplitude(G, i, j, t))


def amplitudes_on_grid(G: Graph, i: int, j: int, times: np.ndarray) -> np.ndarray:
    evals, evecs = _eigendecomposition(G)
    phases = np.exp(1j * np.outer(times, evals))
    return phases @ (evecs[i] * evecs[j])


@dataclass(frozen=True)
class FidelitySeries:
    pair: tuple[int, int]
    times: np.ndarray
    values: np.ndarray
    peak_time: float
    peak_value: float

    def to_csv(self) -> str:
        lines = ["t,fidelity"]
        for t, v in zip(self.times, self.values):
            lines.append(f"{t:.12g},{v:.12g}")
        return "\n".join(lines) + "\n"


def fidelity_scan(G: Graph, i: int, j: int, t_max: float, steps: int) -> FidelitySeries:
    """Uniform fidelity sampling on [0, t_max] with quadratic peak
    refinement around the best sample."""
    if steps < 2:
        raise ValueError("need at least 2 steps")
    if not 0 <= t_max < np.inf:
        raise ValueError("t_max must be finite and nonnegative")
    times = np.linspace(0.0, t_max, steps)
    values = np.abs(amplitudes_on_grid(G, i, j, times))
    k = int(np.argmax(values))
    pt, pv = float(times[k]), float(values[k])
    if 0 < k < steps - 1:
        y0, y1, y2 = values[k - 1], values[k], values[k + 1]
        denom = y0 - 2 * y1 + y2
        if abs(denom) > 1e-30:
            shift = 0.5 * (y0 - y2) / denom
            if abs(shift) <= 1.0:
                pt = float(times[k] + shift * (times[1] - times[0]))
                pv = fidelity(G, i, j, pt)
                if pv < values[k]:
                    pt, pv = float(times[k]), float(values[k])
    return FidelitySeries((i, j), times, values, pt, pv)


def verify_certificate(G: Graph, cert: "PstCertificate") -> bool:
    """Numeric soundness check of a positive PST certificate.

    Fidelity must hit 1 at t_min and at the odd multiple 3*t_min, and must
    stay away from 1 at the even multiple 2*t_min unless the walk is periodic
    there.
    """
    if cert.result != "PST":
        raise ValueError("can only verify positive certificates")
    i, j = cert.pair
    t = cert.t_min
    if fidelity(G, i, j, t) < 1 - 1e-9:
        return False
    if fidelity(G, i, j, 3 * t) < 1 - 1e-9:
        return False
    periodic = fidelity(G, i, i, 2 * t) >= 1 - 1e-9
    if not periodic and fidelity(G, i, j, 2 * t) >= 1 - 1e-6:
        return False
    return True
