"""Dense complex linear algebra and validated quantum-state types.

Everything downstream works with three operator types built on numpy
arrays: ``DensityMatrix`` (Hermitian, unit trace, positive semidefinite),
``Hamiltonian`` (Hermitian with a cached spectral decomposition, energy
units with hbar = 1) and ``Observable`` (Hermitian). Validation happens at
construction: no instance can exist that violates its invariants beyond
the fixed tolerances ``HERMITICITY_TOL``, ``TRACE_TOL`` and ``PSD_TOL``.
PSD is proved by a Cholesky factor; ``eigvalsh`` runs only to judge and
name a failure (``_check_state``): an eigenvalue test's verdict, to roundoff.
A sweep point's X = rho * Phi (Phi real, exactly symmetric) is PSD when
(rho + aI) * (Phi + bI) is (Schur product): lambda_min(X) >= -max_i(a Phi_ii +
b rho_ii) - ab, a = m + g tr(rho + tau/2 I) for rho's bound -m, b = tau/4 + u +
g tr(Phi + tau/4 I) if Phi + tau/4 I has a real factor; tau = PSD_TOL, u = 2^-53,
g = gamma_{d+1} (Cholesky backward error, Higham ch. 10). Else X is factored.

Tensor index convention, shared by every module: in a bipartite product
the slow subsystem S is the LEFT (row-major outer) factor and the clock C
is the RIGHT factor, i.e. ``kron(S_op, C_op)``.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionOverflowError,
    EigensolverError,
    NotHermitianError,
    NotPositiveError,
    QuantumStateError,
    TraceNotOneError,
)

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "PSD_TOL",
    "DIMENSION_CAP",
    "DensityMatrix",
    "Hamiltonian",
    "Observable",
    "tensor",
    "partial_trace",
    "expectation",
    "purity",
]

# Numerical budgets. The mathematics is exact; these absorb the roundoff
# of float64 arithmetic.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

# Largest composite dimension tensor() or a CompositeScenario may have.
DIMENSION_CAP = 4096

_EIGENBASIS_TOL = 1e-9  # unitarity and reconstruction budget
_HERMITIAN_BAND = 128  # rows per slice of the Hermiticity defect


def _as_matrix(m, finite: bool = True) -> np.ndarray:
    """Coerce input to a complex 2-d array, finite unless told otherwise."""
    if isinstance(m, (DensityMatrix, Hamiltonian, Observable)):
        return m.matrix
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise QuantumStateError(f"expected a 2-d matrix, got ndim={arr.ndim}")
    if finite and not np.isfinite(arr).all():
        raise QuantumStateError("matrix has non-finite entries")
    return arr


def _require_square(arr: np.ndarray) -> int:
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"matrix is not square: shape {arr.shape}")
    return arr.shape[0]


def _check_hermitian(arr: np.ndarray, what: str) -> None:
    b = _HERMITIAN_BAND  # max |arr - arr^H|, NaN kept, over upper-triangle bands
    defect = float(np.max([np.max(np.abs(
        arr[r:r + b, r:] - arr[r:, r:r + b].T.conj()
    ), initial=0.0) for r in range(0, len(arr), b)], initial=0.0))
    if defect > HERMITICITY_TOL:
        raise NotHermitianError(defect, what=what)


def _factors(arr: np.ndarray, shift: float) -> bool:
    """Whether arr + shift I has a Cholesky factor."""
    shifted, diag = arr.copy(), np.arange(len(arr))
    shifted[diag, diag] += shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_state(arr: np.ndarray, proved: float = np.inf) -> float:
    """Raise unless ``arr`` is a density matrix; return m <= PSD_TOL with
    lambda_min >= -m proved: ``proved``, else PSD_TOL/2 by a factor of
    arr + PSD_TOL/2 I, else |lambda_min| as eigvalsh decides."""
    if not np.isfinite(arr).all():
        raise QuantumStateError("density matrix has non-finite entries")
    _check_hermitian(arr, "density matrix")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOneError(tr)
    if proved < PSD_TOL:
        return proved
    if _factors(arr, 0.5 * PSD_TOL):
        return 0.5 * PSD_TOL
    smallest = float(np.min(np.linalg.eigvalsh(arr)))
    if smallest < -PSD_TOL:
        raise NotPositiveError(smallest)
    return abs(smallest)


def _schur_state(state: DensityMatrix, phi: np.ndarray) -> np.ndarray:
    """X = rho * phi, a state as the module docstring proves; rho exactly Hermitian."""
    rho, bound = state.matrix, np.inf
    if np.isrealobj(phi) and np.array_equal(phi, phi.T) and _factors(phi, PSD_TOL / 4):
        d = len(phi)
        g = _roundoff(1.0, d + 1)  # gamma_{d+1}
        a = state._margin + g * (np.trace(rho).real + d * PSD_TOL / 2)
        b = PSD_TOL / 4 + 2.0**-53 + g * (np.trace(phi) + d * PSD_TOL / 4)
        bound = float(np.max(a * phi.diagonal() + b * rho.diagonal().real)) + a * b
    x = rho * phi
    _check_state(x, bound)
    return x


def _check_product_dim(d_a: int, d_b: int) -> None:
    """Refuse a bipartite dimension above ``DIMENSION_CAP`` before allocating."""
    if d_a * d_b > DIMENSION_CAP:
        raise DimensionOverflowError(
            f"tensor product dimension {d_a * d_b} exceeds cap {DIMENSION_CAP}"
        )


def _frozen(arr: np.ndarray, given) -> np.ndarray:
    """Read-only ``arr``; a copy if it is the caller's input ``given`` or a view."""
    if arr is given or arr.base is not None:
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


class DensityMatrix:
    """Validated quantum state: Hermitian, unit trace, positive semidefinite.

    Instances are immutable; the underlying array is read-only and safe to
    share across threads.
    """

    __slots__ = ("dim", "matrix", "_margin")

    def __init__(self, matrix):
        arr = _as_matrix(matrix, finite=False)  # _check_state tests it
        dim = _require_square(arr)
        object.__setattr__(self, "_margin", _check_state(arr))  # for _schur_state
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", _frozen(arr, matrix))

    def __setattr__(self, name, value):
        raise AttributeError("DensityMatrix is immutable")

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


class Hamiltonian:
    """Hermitian operator with a cached spectral decomposition.

    ``spectrum`` holds the eigenvalues sorted ascending (degeneracies
    allowed) and ``eigenbasis`` the matching unitary whose columns are
    eigenvectors, so ``eigenbasis @ diag(spectrum) @ eigenbasis^dag``
    reconstructs ``matrix``. Within a degenerate subspace the basis choice
    is arbitrary; downstream operations must not depend on it.
    """

    __slots__ = ("dim", "matrix", "spectrum", "eigenbasis")

    def __init__(self, matrix):
        arr = _as_matrix(matrix)
        dim = _require_square(arr)
        _check_hermitian(arr, "Hamiltonian")
        try:
            energies, basis = np.linalg.eigh(arr)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
        if not np.isfinite(energies).all():  # finite entries can still overflow
            raise EigensolverError(
                f"spectrum is not finite: [{energies.min():g}..{energies.max():g}]"
            )
        self._finish_init(dim, arr, energies, basis, matrix)

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenbasis) -> "Hamiltonian":
        """Build from explicit spectral data (eigenvalues must be ascending).

        No runtime path calls it: it fixes a chosen basis inside a degenerate
        level, to check that no output depends on that choice.
        """
        energies = np.asarray(eigenvalues, dtype=float)
        basis = np.asarray(eigenbasis, dtype=np.complex128)
        if energies.ndim != 1 or basis.shape != (energies.size, energies.size):
            raise DimensionMismatchError(
                f"eigensystem shapes {energies.shape} / {basis.shape} do not match"
            )
        if not (np.isfinite(energies).all() and np.isfinite(basis).all()):
            raise QuantumStateError("eigensystem has non-finite entries")
        if np.any(np.diff(energies) < 0):
            raise QuantumStateError("eigenvalues must be sorted ascending")
        arr = (basis * energies) @ basis.conj().T
        arr = 0.5 * (arr + arr.conj().T)  # exact symmetrization of roundoff
        self = cls.__new__(cls)
        self._finish_init(energies.size, arr, energies, basis, eigenbasis)
        return self

    def _finish_init(self, dim, arr, energies, basis, given):
        adjoint = basis.conj().T  # one copy serves both checks
        defect = adjoint @ basis
        defect[np.diag_indices(dim)] -= 1.0  # U^dag U - I, in place
        unitarity = float(np.max(np.abs(defect), initial=0.0))
        if not unitarity <= _EIGENBASIS_TOL:
            raise EigensolverError(
                f"eigenbasis is not unitary: max |U^dag U - I| = {unitarity:.3e}"
            )
        adjoint *= energies[:, None]  # diag(E) U^dag
        np.matmul(basis, adjoint, out=defect)
        defect -= arr  # U diag(E) U^dag - matrix, in the same buffer
        recon = float(np.max(np.abs(defect), initial=0.0))
        del adjoint, defect  # gone before matrix is copied below
        if not recon <= _EIGENBASIS_TOL:
            raise EigensolverError(
                f"spectral reconstruction error {recon:.3e} exceeds budget"
            )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", _frozen(arr, given))
        energies = np.array(energies, dtype=float, copy=True)
        energies.setflags(write=False)
        object.__setattr__(self, "spectrum", energies)
        object.__setattr__(self, "eigenbasis", _frozen(basis, given))

    def __setattr__(self, name, value):
        raise AttributeError("Hamiltonian is immutable")

    def __repr__(self) -> str:
        lo, hi = self.spectrum[0], self.spectrum[-1]
        return f"Hamiltonian(dim={self.dim}, spectrum=[{lo:g}..{hi:g}])"


class Observable:
    """Hermitian operator measured against a state via ``expectation``."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        arr = _as_matrix(matrix)
        dim = _require_square(arr)
        _check_hermitian(arr, "observable")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "matrix", _frozen(arr, matrix))

    def __setattr__(self, name, value):
        raise AttributeError("Observable is immutable")

    def __repr__(self) -> str:
        return f"Observable(dim={self.dim})"


def tensor(a, b) -> np.ndarray:
    """Kronecker product with the S-left / C-right index convention."""
    am = _as_matrix(a)
    bm = _as_matrix(b)
    _check_product_dim(am.shape[0], bm.shape[0])
    return np.kron(am, bm)


def partial_trace(
    rho: DensityMatrix, dims: tuple[int, int], keep: str
) -> DensityMatrix:
    """Trace out one factor of a bipartite state.

    ``dims = (d_S, d_C)`` are the factor dimensions in the fixed S-left /
    C-right convention; ``keep`` selects the surviving subsystem, ``"S"``
    or ``"C"``.
    """
    d_s, d_c = int(dims[0]), int(dims[1])
    if d_s < 1 or d_c < 1 or rho.dim != d_s * d_c:
        raise DimensionMismatchError(
            f"state dim {rho.dim} is not the product of factor dims {d_s}x{d_c}"
        )
    blocks = rho.matrix.reshape(d_s, d_c, d_s, d_c)
    tag = keep.upper() if isinstance(keep, str) else keep
    if tag == "S":
        reduced = np.einsum("ajbj->ab", blocks)
    elif tag == "C":
        reduced = np.einsum("iaib->ab", blocks)
    else:
        raise DimensionMismatchError(f"keep must be 'S' or 'C', got {keep!r}")
    return DensityMatrix(reduced)


def expectation(observable: Observable, rho: DensityMatrix) -> float:
    """Expectation value Re Tr(N rho) = Re sum_ij N_ij rho_ji, which Hermitian
    operands make real: an imaginary part beyond roundoff raises."""
    if observable.dim != rho.dim:
        raise DimensionMismatchError(
            f"observable dim {observable.dim} != state dim {rho.dim}"
        )
    terms = observable.matrix * rho.matrix.T
    bound = _imaginary_bound(np.sum(np.abs(terms)), observable.matrix)
    return _real_expectation(complex(np.sum(terms)), bound)


def _roundoff(scale: float, n: float) -> float:
    """gamma_n scale, gamma_n = n u / (1 - n u), u = 2^-53: the most n roundings
    move a sum of terms of total magnitude ``scale`` (Higham, ch. 3)."""
    return n / (2.0**53 - n) * scale


def _imaginary_bound(scale: float, n: np.ndarray) -> float:
    """Most |Im Tr(N rho)| for a checked unit-trace rho and observable N, with
    W = rho * N^T in one d-dim basis and scale = sum |W_ij|: roundoff gamma_{4d}
    scale, and the skew parts the checks admit (||K||_F <= d HERMITICITY_TOL / 2,
    |Tr K_N rho| <= ||K_N||_F, |Tr N K_rho| <= ||N||_F ||K_rho||_F)."""
    d = len(n)
    skew = d * HERMITICITY_TOL / 2 * (1.0 + float(np.linalg.norm(n)))
    return _roundoff(scale, 4 * d) + skew


def _expect(p: np.ndarray, weighted: np.ndarray, bound: float) -> float:
    """Tr[N D X D*] = Re p^T weighted p* for weighted = X * N^T, D = diag(p)."""
    return _real_expectation(complex(p @ weighted @ p.conj()), bound)


def _real_expectation(value: complex, bound: float) -> float:
    """Re of an expectation value whose |Im| ``_imaginary_bound`` bounds."""
    if abs(value.imag) > bound:
        raise QuantumStateError(
            f"expectation has imaginary part {value.imag:.3e} beyond its "
            f"bound {bound:.3e}; inputs are not Hermitian enough"
        )
    return float(value.real)


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2) = sum |rho_ij|^2, in [1/dim, 1] up to the PSD tolerance."""
    return float(np.vdot(rho.matrix, rho.matrix).real)
