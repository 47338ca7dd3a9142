"""Density-matrix evolution engines and energy-decoherence diagnostics.

Every engine is one operation: transform the state to the energy basis
(H is diagonalized once and reused), multiply it elementwise by a matrix
M, transform back. M[i, j] averages the phase exp(-i (E_i - E_j) t) over
the evolution times the engine mixes; the engines differ only in M:

* ``evolve_unitary`` - one exact time t.
* ``evolve_relational_quadrature`` - the kernel's quadrature nodes: the
  state as seen through an inaccurate clock.
* ``evolve_relational_dephasing`` - the same state in closed form: the
  kernel's characteristic function at the gap E_i - E_j, with no
  quadrature error. The two relational routes build M independently and
  are kept separate deliberately: one checks the other.
* ``evolve_pearle`` - ensemble-level energy-driven collapse (Pearle-type):
  Gauss-Hermite nodes around t with width sqrt(lam * t). Coincides with
  the relational engines for the Gaussian kernel at t_B = t.

Mixing over clock uncertainty only ever suppresses energy-basis
off-diagonals; populations (and any element between equal-energy states)
are untouched. ``coherence_report`` tabulates that suppression per gap.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import qmat
from .errors import (
    DimensionMismatchError,
    NonPositiveLambdaError,
    QuadratureDriftError,
    QuantumStateError,
)
from .kernels import QuadratureRule, TimeKernel, _hermgauss, quadrature_for
from .qmat import DensityMatrix, Hamiltonian, _check_hermitian, _hermitian_part

__all__ = [
    "CoherenceReport",
    "evolve_unitary",
    "evolve_relational_quadrature",
    "evolve_relational_dephasing",
    "evolve_pearle",
    "coherence_report",
]

_TRACE_DRIFT_BUDGET = 1e-8
DECOHERENCE_THRESHOLD = 1e-6  # default cutoff for "completely decohered"


class _Frame(NamedTuple):  # see _energy_frame
    state: DensityMatrix
    weighted: np.ndarray
    scale: float
    bound: float


class CoherenceReport(NamedTuple):
    """Per-gap dephasing summary for one state, Hamiltonian and kernel.

    The arrays hold one entry per energy-basis element (i, j) with i < j,
    in row-major order. ``complete_decoherence`` is True when every
    element between distinct-energy eigenstates has averaged magnitude
    below the threshold; with a fully degenerate spectrum there are no
    such elements and the flag is vacuously True.
    """

    i: np.ndarray
    j: np.ndarray
    energy_i: np.ndarray
    energy_j: np.ndarray
    magnitude_exact: np.ndarray
    magnitude_averaged: np.ndarray
    max_offdiag_averaged: float
    complete_decoherence: bool
    threshold: float


def _check_dims(hamiltonian: Hamiltonian, **operands) -> None:
    for name, operand in operands.items():
        if operand.dim != hamiltonian.dim:
            raise DimensionMismatchError(
                f"{name} dim {operand.dim} != Hamiltonian dim {hamiltonian.dim}"
            )


def _to_eigenbasis(matrix: np.ndarray, hamiltonian: Hamiltonian) -> np.ndarray:
    basis = hamiltonian.eigenbasis
    return basis.conj().T @ matrix @ basis


def _from_eigenbasis(matrix: np.ndarray, hamiltonian: Hamiltonian) -> np.ndarray:
    basis = hamiltonian.eigenbasis
    return basis @ matrix @ basis.conj().T


def _run_starts(ascending: np.ndarray, top: float) -> np.ndarray:
    """True where a run of equal values starts: at a step above 1e-12 top."""
    return np.diff(ascending, prepend=-np.inf) > 1e-12 * top


def _distinct_gap_mask(spectrum: np.ndarray) -> np.ndarray:
    """True at (i, j) where E_i, E_j lie in different levels: runs of the ascending
    spectrum split at steps above 1e-12 max|E|. Averaging cannot touch the rest."""
    level = np.cumsum(_run_starts(spectrum, np.max(np.abs(spectrum), initial=0.0)))
    return level[:, None] != level[None, :]


def _distinct_gaps(spectrum: np.ndarray) -> np.ndarray:
    """One value per run of the ascending between-level gaps |E_i - E_j|, by the
    levels' rule: the run's first gap g, as round(g / 2^k, 12) 2^k with
    2^k <= max|E| < 2^(k+1), so that a power-of-two rescaling scales it exactly."""
    top = float(np.max(np.abs(spectrum), initial=0.0))
    below = np.tril(_distinct_gap_mask(spectrum))  # E_i > E_j
    g = np.sort(np.subtract.outer(spectrum, spectrum)[below])
    unit = np.ldexp(1.0, np.frexp(top)[1] - 1)
    return np.round(g[_run_starts(g, top)] / unit, 12) * unit


def _max_offdiag(rho_e: np.ndarray, distinct: np.ndarray) -> float:
    """Largest |rho_e| where ``distinct`` (a ``_distinct_gap_mask``) holds."""
    return float(np.max(np.abs(rho_e), where=distinct, initial=0.0))


def _finish_state(raw: np.ndarray, what: str = "engine output") -> DensityMatrix:
    """Validate engine output: check Hermiticity and trace drift, then renormalize.

    Renormalization is only allowed inside the drift budget; a larger
    deviation means the multiplier does not average to 1 on the populations
    (too few quadrature nodes, or a kernel whose envelope is not 1 at gap 0)
    and is reported as an error instead of being papered over. ``raw``, a
    fresh temporary, is changed; ``what`` names it in a Hermiticity error.
    """
    _check_hermitian(raw, what)  # the state's Hermitian part would hide it
    tr = complex(np.trace(raw)).real
    if abs(tr - 1.0) > _TRACE_DRIFT_BUDGET:
        raise QuadratureDriftError(
            f"trace drifted to {tr:.12g} (deviation {abs(tr - 1.0):.3e} > "
            f"budget {_TRACE_DRIFT_BUDGET:.1e})"
        )
    raw /= tr
    return DensityMatrix(raw)


_PHASE_TOL = 1e-12  # largest | |p_i| - 1 | a point's phases may have


def _phases(spectrum: np.ndarray, t) -> np.ndarray:
    # p = exp(-i E t); one leading axis per axis of t.
    return np.exp(-1j * np.multiply.outer(t, spectrum))


def _bob_point(state_e: DensityMatrix, spectrum, omega, kernel: TimeKernel) -> tuple:
    """Bob's state at a reading, D X D* in H's eigenbasis, as (p, Phi, X): the phases
    p of D = diag(p) at the kernel's t_b, refused off the unit circle (D is unitary);
    Phi the envelope at omega = |E_i - E_j|; X = rho_e * Phi, by ``_schur_state``."""
    p = _phases(spectrum, kernel.t_b)
    off = float(np.max(np.abs(np.abs(p) - 1.0), initial=0.0))
    if not off <= _PHASE_TOL:  # NaN fails too
        raise QuantumStateError(f"phases off the unit circle by {off:.1e}")
    phi = kernel._envelope(omega)
    x, _ = qmat._schur_state(state_e, phi)
    return p, phi, x


def _energy_frame(state: DensityMatrix, hamiltonian: Hamiltonian, observable) -> _Frame:
    """``state`` and ``observable`` N in H's eigenbasis, after both dimension checks:
    rho_e = U^dag rho U, validated by ``_finish_state``, N_e the Hermitian part of U^dag
    N U, W = rho_e * N_e^T (Tr[N D rho_e D*] = p^T W p*, D = diag(p)), sum |W_ij| and
    gamma_{4d} sum |W_ij|, which bounds such a value's imaginary part (roundoff)."""
    _check_dims(hamiltonian, state=state, observable=observable)
    rho_e = _to_eigenbasis(state.matrix, hamiltonian)
    rho_e = _finish_state(rho_e, "energy-basis state")
    n_e = _hermitian_part(_to_eigenbasis(observable.matrix, hamiltonian))
    weighted = rho_e.matrix * n_e.T
    scale = float(np.sum(np.abs(weighted)))
    return _Frame(rho_e, weighted, scale, qmat._roundoff(scale, 4 * len(n_e)))


def _unitary_multiplier(spectrum: np.ndarray, t) -> np.ndarray:
    # outer(p, p*): rho * outer(p, p*) = D rho D* keeps rho's spectrum.
    phases = _phases(spectrum, t)
    return phases[..., :, None] * phases[..., None, :].conj()


def _kernel_multiplier(spectrum: np.ndarray, kernel: TimeKernel) -> np.ndarray:
    # Element (i, j) picks up exp(+i (E_j - E_i) t); averaging that phase
    # over the kernel is chi evaluated at E_i - E_j (note the order).
    return np.asarray(kernel._chi(spectrum[:, None] - spectrum[None, :]))


def _rule_multiplier(spectrum: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    # P[k, i] = exp(-i E_i t_k), so (P^T diag(w) P*)[i, j] is the weighted
    # sum of the node phases.
    phases = _phases(spectrum, rule.nodes)
    return phases.T @ (rule.weights[:, None] * phases.conj())


def _collapse_nodes(nodes) -> int:
    if int(nodes) < 1:  # as quadrature_for refuses a node_count
        raise QuantumStateError(f"the collapse engine needs --nodes >= 1, got {nodes}")
    return int(nodes)


def _pearle_multiplier(spectrum: np.ndarray, lam: float, t: float, nodes: int):
    x, w = _hermgauss(nodes)
    rule = QuadratureRule(t - np.sqrt(2.0 * lam * t) * x, w / w.sum())
    return _rule_multiplier(spectrum, rule)


def _dephase(
    rho0: DensityMatrix,
    hamiltonian: Hamiltonian,
    multiplier: np.ndarray,
) -> DensityMatrix:
    """The state rho0 with its energy-basis elements scaled by ``multiplier``."""
    _check_dims(hamiltonian, state=rho0)
    rho_e = _to_eigenbasis(rho0.matrix, hamiltonian) * multiplier
    return _finish_state(_from_eigenbasis(rho_e, hamiltonian))


def evolve_unitary(
    rho0: DensityMatrix, hamiltonian: Hamiltonian, t: float
) -> DensityMatrix:
    """Exact-time evolution via the cached spectral decomposition.

    Negative times are allowed (the propagators form a group). Trace,
    Hermiticity, purity and spectrum are preserved up to roundoff.
    """
    return _dephase(rho0, hamiltonian, _unitary_multiplier(hamiltonian.spectrum, t))


def evolve_relational_quadrature(
    rho0: DensityMatrix,
    hamiltonian: Hamiltonian,
    kernel: TimeKernel,
    nodes: int,
) -> DensityMatrix:
    """Kernel-averaged state by explicit quadrature over evolution times."""
    rule = quadrature_for(kernel, nodes)
    multiplier = _rule_multiplier(hamiltonian.spectrum, rule)
    return _dephase(rho0, hamiltonian, multiplier)


def evolve_relational_dephasing(
    rho0: DensityMatrix, hamiltonian: Hamiltonian, kernel: TimeKernel
) -> DensityMatrix:
    """Kernel-averaged state by the closed-form per-gap dephasing law.

    Exact (no discretization error) for every kernel whose characteristic
    function has a closed form; for tabulated kernels the characteristic
    sum over the table is itself exact.
    """
    return _dephase(rho0, hamiltonian, _kernel_multiplier(hamiltonian.spectrum, kernel))


def evolve_pearle(
    rho0: DensityMatrix,
    hamiltonian: Hamiltonian,
    lam: float,
    t: float,
    nodes: int,
) -> DensityMatrix:
    """Energy-driven-collapse state at time t (ensemble level).

    A standard-normal average of unitary evolutions at effective times
    t - sqrt(lam * t) * eta, done with Gauss-Hermite nodes. Effective
    times may be negative; they are evolved with the same group formula,
    no clamping. At t = 0 the state is returned unchanged.
    """
    _check_dims(hamiltonian, state=rho0)
    nodes = _collapse_nodes(nodes)
    if not lam > 0:
        raise NonPositiveLambdaError(f"lam must be > 0, got {lam}")
    if t < 0:
        raise ValueError(f"collapse evolution needs t >= 0, got {t}")
    if t == 0:
        return rho0
    multiplier = _pearle_multiplier(hamiltonian.spectrum, lam, t, nodes)
    return _dephase(rho0, hamiltonian, multiplier)


def coherence_report(
    rho0: DensityMatrix,
    hamiltonian: Hamiltonian,
    kernel: TimeKernel,
    *,
    threshold: float = DECOHERENCE_THRESHOLD,
) -> CoherenceReport:
    """Tabulate energy-basis magnitudes before and after kernel averaging.

    Exact-time magnitudes are time-independent (unitary evolution only
    rotates phases in the energy basis), so the comparison needs no
    reference time.
    """
    _check_dims(hamiltonian, state=rho0)
    spectrum = hamiltonian.spectrum
    rows, cols = np.triu_indices(hamiltonian.dim, 1)
    mag_exact = np.abs(_to_eigenbasis(rho0.matrix, hamiltonian))[rows, cols]
    mag_avg = mag_exact * np.abs(kernel._chi(spectrum[rows] - spectrum[cols]))
    max_offdiag = _max_offdiag(mag_avg, _distinct_gap_mask(spectrum)[rows, cols])
    return CoherenceReport(
        i=rows,
        j=cols,
        energy_i=spectrum[rows],
        energy_j=spectrum[cols],
        magnitude_exact=mag_exact,
        magnitude_averaged=mag_avg,
        max_offdiag_averaged=max_offdiag,
        complete_decoherence=bool(max_offdiag < threshold),
        threshold=float(threshold),
    )
