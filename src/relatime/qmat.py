"""Dense complex linear algebra and validated quantum-state types.

Everything downstream works with three operator types built on numpy
arrays: ``DensityMatrix`` (Hermitian, unit trace, positive semidefinite),
``Hamiltonian`` (its spectrum and eigenbasis only, energy units with
hbar = 1) and ``Observable`` (Hermitian). Validation happens at
construction: no instance can exist that violates its invariants beyond
the fixed tolerances ``HERMITICITY_TOL``, ``TRACE_TOL`` and ``PSD_TOL``.
PSD is proved by a Cholesky factor, and ``eigvalsh`` judges and names what fails
it (``_check_state``): an eigenvalue test's verdict, to roundoff. Bob's state at a
point, X = rho * Phi, Phi_ij = phi(|E_i - E_j|) for his watch's characteristic function
phi, is PSD by construction: Phi is (Bochner), so is (rho + mI) * Phi (Schur) for
rho's bound -m, and Phi_ii = 1. A computed Phi' within eps of Phi, Phi'_ii = 1, adds
max_i(rho_ii + m) d eps (Horn & Johnson, Topics, ch. 5); rounding X adds
u (1 + eps) || |rho| || <= u (1 + eps)(tr rho + (d + 1) m), u = 2^-53.

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
_ENVELOPE_EPS = 8 * 2.0**-53  # most |phi' - phi| of a sweep envelope, seen <= 2.11 u

# Largest composite dimension tensor() or a CompositeScenario may have.
DIMENSION_CAP = 4096

# c of the eigensystem probe's budget c d u: valid H read up to 12.3 d u (d <= 6),
# defects of 1e-9 in U or 1e-7 in an energy at least 7.4e3 d u (d <= 1024).
_PROBE = 64
_HERMITIAN_BAND = 128  # rows per slice of the Hermiticity defect


def _as_matrix(m, finite: bool = True) -> np.ndarray:
    """Coerce input to a complex 2-d array, finite unless told otherwise."""
    if isinstance(m, (DensityMatrix, Observable)):
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


def _check_hermitian(arr: np.ndarray, what: str, relative: bool = False) -> None:
    """Raise if max |arr - arr^H| > HERMITICITY_TOL, times max |arr| if ``relative``."""
    b = _HERMITIAN_BAND  # max |arr - arr^H|, NaN kept, over upper-triangle bands
    defect = float(np.max([np.max(np.abs(
        arr[r:r + b, r:] - arr[r:, r:r + b].T.conj()
    ), initial=0.0) for r in range(0, len(arr), b)], initial=0.0))
    scale = float(np.max(np.abs(arr), initial=0.0)) if relative else 1.0
    if defect > HERMITICITY_TOL * scale:
        raise NotHermitianError(defect, what=what)


def _check_state(arr: np.ndarray) -> float:
    """Raise unless ``arr`` is a density matrix; return m <= PSD_TOL with
    lambda_min >= -m proved: PSD_TOL/2 by a factor of arr + PSD_TOL/2 I,
    else |lambda_min| as eigvalsh decides."""
    if not np.isfinite(arr).all():
        raise QuantumStateError("density matrix has non-finite entries")
    _check_hermitian(arr, "density matrix")
    tr = complex(np.trace(arr))
    if abs(tr - 1.0) > TRACE_TOL:
        raise TraceNotOneError(tr)
    shifted, diag = arr.copy(), np.arange(len(arr))
    shifted[diag, diag] += 0.5 * PSD_TOL
    try:
        np.linalg.cholesky(shifted)
        return 0.5 * PSD_TOL
    except np.linalg.LinAlgError:
        del shifted
    smallest = float(np.min(np.linalg.eigvalsh(arr)))
    if smallest < -PSD_TOL:
        raise NotPositiveError(smallest)
    return abs(smallest)


def _schur_state(state: DensityMatrix, phi: np.ndarray) -> tuple[np.ndarray, float]:
    """X = rho * phi and m with lambda_min(X) >= -m proved, for rho exactly Hermitian:
    the module docstring's bound, or ``_check_state``'s if rho's margin leaves no room.
    phi's premise: real, exactly symmetric, phi_ii = 1, |phi_ij| <= 1 + eps (so X is
    finite, exactly Hermitian, of rho's exact trace) and 1^T phi 1 >= -d^2 eps (Bochner)
    less its roundoff gamma_{d^2+1} d^2 (1 + eps); an envelope that fails it raises."""
    rho, d, eps, m = state.matrix, len(phi), _ENVELOPE_EPS, state._margin
    at_zero = float(np.max(np.abs(phi.diagonal() - 1.0), initial=0.0))
    top = float(np.max(np.abs(phi), initial=0.0))
    mean = float(np.sum(phi).real) / (d * d)
    symmetric = np.isrealobj(phi) and np.array_equal(phi, phi.T)
    if not (symmetric and at_zero == 0.0 and top <= 1.0 + eps  # NaN fails too
            and mean >= -eps - _roundoff(1.0 + eps, d * d + 1)):
        raise QuantumStateError(
            f"envelope is not a characteristic function: max |phi(0) - 1| = "
            f"{at_zero:.3e}, max |phi| = 1 + {top - 1:.3e}, mean phi = {mean:.3e}, "
            f"real and symmetric: {symmetric}")
    u, peak = 2.0**-53, float(np.max(rho.diagonal().real, initial=0.0)) + m
    x = rho * phi
    bound = m + peak * d * eps + u * (1 + eps) * (1 + TRACE_TOL + (d + 1) * m)
    return x, (bound if bound < PSD_TOL else _check_state(x))


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
    """Hermitian operator held as its spectral decomposition alone.

    ``spectrum`` holds the eigenvalues sorted ascending (degeneracies
    allowed) and ``eigenbasis`` the matching unitary whose columns are
    eigenvectors, so ``eigenbasis @ diag(spectrum) @ eigenbasis^dag`` is H.
    Within a degenerate subspace the basis choice is arbitrary; downstream
    operations must not depend on it.
    """

    __slots__ = ("dim", "spectrum", "eigenbasis")

    def __init__(self, matrix):
        """Diagonalize H, then probe U U^dag = I and U diag(E) U^dag = H at one
        fixed x, |x_k| = 1 (Freivalds, 1977): a max-norm residual above c d u,
        times max|E| for H, or NaN raises. E and U are eigh's own arrays."""
        arr = _as_matrix(matrix)
        _require_square(arr)
        _check_hermitian(arr, "Hamiltonian", relative=True)
        try:
            energies, basis = np.linalg.eigh(arr)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver did not converge: {exc}") from exc
        if not np.isfinite(energies).all():  # finite entries can still overflow
            raise EigensolverError(
                f"spectrum is not finite: [{energies.min():g}..{energies.max():g}]"
            )
        x = np.exp(1j * np.arange(energies.size))
        y = basis.conj().T @ x
        back = basis @ np.stack([y, energies * y], axis=1)  # U y, U (E * y)
        budget = _PROBE * energies.size * 2.0**-53
        unitarity = float(np.max(np.abs(back[:, 0] - x), initial=0.0))
        if not unitarity <= budget:
            raise EigensolverError(
                f"eigenbasis is not unitary: max |U U^dag x - x| = {unitarity:.3e}"
            )
        recon = float(np.max(np.abs(back[:, 1] - arr @ x), initial=0.0))
        if not recon <= budget * float(np.max(np.abs(energies), initial=0.0)):
            raise EigensolverError(
                f"spectral reconstruction error {recon:.3e} exceeds budget"
            )
        energies.setflags(write=False)
        basis.setflags(write=False)
        object.__setattr__(self, "dim", energies.size)
        object.__setattr__(self, "spectrum", energies)
        object.__setattr__(self, "eigenbasis", basis)

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
        _check_hermitian(arr, "observable", relative=True)
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
    scale, and the skew parts the checks admit: |Tr K_N rho| + |Tr N K_rho| <= d
    HERMITICITY_TOL / 2 (max|N| + ||N||_F) <= d HERMITICITY_TOL ||N||_F, any basis."""
    d = len(n)
    skew = d * HERMITICITY_TOL * float(np.linalg.norm(n))
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
