"""Clock-uncertainty kernels and the quadrature machinery around them.

A ``TimeKernel`` is a normalized probability density P(t | t_B) for the
actual elapsed time t given a watch reading t_B. Each kind supplies a
quadrature rule for integrating against itself and a characteristic
function chi(omega) = integral P(t|t_B) exp(-i omega t) dt, which is the
per-energy-gap dephasing multiplier used by the closed-form engine. chi is
phase x envelope: exp(-i omega t_B) times phi(omega), the characteristic
function of the watch error t - t_B, real for delta, gaussian and uniform.

Units: hbar = 1 throughout, so times carry inverse-energy units and the
Gaussian rate parameter ``lam`` has time units (variance lam * t_B).

A word of caution on the Gaussian kind: its support is the whole real
line, so it assigns nonzero probability to NEGATIVE actual times even
though a physical watch cannot read negative elapsed time. No truncation
is applied; unitary evolution at negative times is perfectly well defined
and truncating would break the closed-form dephasing law.

The Delta and Gaussian kinds are the exactly-treated cases; Uniform and
Tabulated are practical extensions (a watch-error histogram arrives as a
table, typically unnormalized).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    EmptyTableError,
    NonPositiveLambdaError,
    QuantumStateError,
)

__all__ = [
    "TimeKernel",
    "DeltaKernel",
    "GaussianKernel",
    "UniformKernel",
    "TabulatedKernel",
    "QuadratureRule",
    "make_gaussian_kernel",
    "quadrature_for",
]

_WEIGHT_SUM_TOL = 1e-8
_SINC_SERIES_CUTOFF = 1e-8  # below this |x|, sin(x)/x -> 1 - x^2/6


@lru_cache(maxsize=32)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.hermite.hermgauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and normalized nonnegative weights for one kernel integral."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise QuantumStateError(
                f"rule needs matching 1-d nodes/weights, got {nodes.shape} "
                f"and {weights.shape}"
            )
        if not (np.isfinite(nodes).all() and np.isfinite(weights).all()):
            raise QuantumStateError("quadrature nodes and weights must be finite")
        if np.any(weights < 0):
            raise QuantumStateError("quadrature weights must be nonnegative")
        total = float(weights.sum())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise QuantumStateError(
                f"quadrature weights sum to {total:.12g}, expected 1"
            )
        nodes = nodes.copy()
        weights = weights.copy()
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self) -> int:
        return int(self.nodes.size)


def _finite(name: str, value) -> float:
    """A kernel parameter as a float, refused if it is NaN or infinite."""
    value = float(value)
    if not np.isfinite(value):
        raise QuantumStateError(f"kernel {name} must be finite, got {value}")
    return value


class TimeKernel:
    """Base class; concrete kinds implement ``_envelope`` and ``quadrature``."""

    kind: str = "abstract"
    t_b: float

    def _chi(self, omega: np.ndarray) -> np.ndarray:
        """Vectorized characteristic function: phase x envelope."""
        omega = np.asarray(omega, dtype=float)
        return np.exp(-1j * omega * self.t_b) * self._envelope(omega)

    def _envelope(self, omega: np.ndarray) -> np.ndarray:
        """phi at a float array: the characteristic function of t - t_b."""
        raise NotImplementedError

    def quadrature(self, node_count: int) -> QuadratureRule:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(t_b={self.t_b!r})"


class DeltaKernel(TimeKernel):
    """Perfectly accurate watch: all probability at t = t_B."""

    kind = "delta"

    def __init__(self, t_b: float):
        self.t_b = _finite("t_b", t_b)

    def _envelope(self, omega):
        return np.ones_like(omega)

    def quadrature(self, node_count: int) -> QuadratureRule:
        # Point mass: the node count is irrelevant.
        return QuadratureRule(np.array([self.t_b]), np.array([1.0]))


class GaussianKernel(TimeKernel):
    """Gaussian watch error, mean t_B and variance lam * t_B.

    The standard deviation grows as sqrt(t_B): the longer the watch has
    been running, the less certain its reading. Requires lam > 0 and
    t_B > 0; at t_B = 0 the width vanishes, which ``make_gaussian_kernel``
    maps to a ``DeltaKernel`` instead.
    """

    kind = "gaussian"

    def __init__(self, lam: float, t_b: float):
        if not lam > 0:
            raise NonPositiveLambdaError(f"lam must be > 0, got {lam}")
        if not t_b > 0:
            raise QuantumStateError(
                f"GaussianKernel needs t_b > 0 (got {t_b}); use "
                "make_gaussian_kernel for the t_b = 0 degenerate case"
            )
        self.lam = _finite("lambda", lam)
        self.t_b = _finite("t_b", t_b)

    @property
    def variance(self) -> float:
        return self.lam * self.t_b

    def pdf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        var = self.variance
        return np.exp(-((self.t_b - t) ** 2) / (2.0 * var)) / np.sqrt(
            2.0 * np.pi * var
        )

    def _envelope(self, omega):
        return np.exp(-0.5 * self.variance * omega**2)

    def quadrature(self, node_count: int) -> QuadratureRule:
        x, w = _hermgauss(int(node_count))
        nodes = self.t_b + np.sqrt(2.0 * self.variance) * x
        weights = w / w.sum()  # analytic sum is sqrt(pi); kill the roundoff
        return QuadratureRule(nodes, weights)


class UniformKernel(TimeKernel):
    """Flat watch error on [t_B - w, t_B + w]."""

    kind = "uniform"

    def __init__(self, half_width: float, t_b: float):
        if not half_width > 0:
            raise QuantumStateError(f"half_width must be > 0, got {half_width}")
        self.half_width = _finite("half_width", half_width)
        self.t_b = _finite("t_b", t_b)

    def pdf(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = np.abs(t - self.t_b) <= self.half_width
        return np.where(inside, 0.5 / self.half_width, 0.0)

    def _envelope(self, omega):
        x = omega * self.half_width
        small = np.abs(x) < _SINC_SERIES_CUTOFF
        safe = np.where(small, 1.0, x)
        return np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)

    def quadrature(self, node_count: int) -> QuadratureRule:
        n = int(node_count)
        if n == 1:
            return QuadratureRule(np.array([self.t_b]), np.array([1.0]))
        nodes = np.linspace(self.t_b - self.half_width, self.t_b + self.half_width, n)
        weights = np.full(n, 1.0 / (n - 1))
        weights[0] *= 0.5
        weights[-1] *= 0.5
        return QuadratureRule(nodes, weights / weights.sum())


class TabulatedKernel(TimeKernel):
    """Discrete watch-error histogram: atoms at ``times`` with ``weights``.

    Input weights may be unnormalized (a raw histogram); they are
    renormalized here. Negative weights are rejected. The nominal reading
    ``t_b`` is the weighted mean of the table, kept as metadata only.
    """

    kind = "tabulated"

    def __init__(self, times, weights):
        times = np.atleast_1d(np.asarray(times, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if times.size == 0:
            raise EmptyTableError("tabulated kernel needs at least one row")
        if times.shape != weights.shape or times.ndim != 1:
            raise QuantumStateError(
                f"times/weights shapes differ: {times.shape} vs {weights.shape}"
            )
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(weights)):
            raise QuantumStateError("table entries must be finite")
        if np.any(weights < 0):
            raise QuantumStateError("table weights must be nonnegative")
        total = float(weights.sum())
        if total <= 0:
            raise QuantumStateError("table weights sum to zero")
        self.times = times.copy()
        self.weights = weights / total
        self.times.setflags(write=False)
        self.weights.setflags(write=False)
        self.t_b = float(self.weights @ self.times)

    def _envelope(self, omega):
        phases = np.exp(-1j * np.multiply.outer(omega, self.times - self.t_b))
        return phases @ self.weights

    def quadrature(self, node_count: int) -> QuadratureRule:
        # The table IS the rule; the requested node count is ignored.
        return QuadratureRule(self.times, self.weights)


def make_gaussian_kernel(lam: float, t_b: float) -> TimeKernel:
    """Gaussian kernel with variance lam * t_B; Delta at the t_B = 0 limit."""
    if not lam > 0:
        raise NonPositiveLambdaError(f"lam must be > 0, got {lam}")
    if t_b < 0:
        raise QuantumStateError(f"t_b must be >= 0, got {t_b}")
    if t_b == 0:
        _finite("lambda", lam)  # the delta kernel drops it unchecked
        return DeltaKernel(0.0)
    return GaussianKernel(lam, t_b)


def quadrature_for(kernel: TimeKernel, node_count: int) -> QuadratureRule:
    """Quadrature rule integrating against the kernel's density."""
    if int(node_count) < 1:
        raise QuantumStateError(f"node_count must be >= 1, got {node_count}")
    return kernel.quadrature(int(node_count))
