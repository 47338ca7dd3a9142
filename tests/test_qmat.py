import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from relatime import (
    DensityMatrix,
    DimensionMismatchError,
    DimensionOverflowError,
    Hamiltonian,
    NotHermitianError,
    NotPositiveError,
    Observable,
    QuantumStateError,
    TraceNotOneError,
    expectation,
    partial_trace,
    purity,
    tensor,
)
from relatime import DeltaKernel, GaussianKernel, UniformKernel, qmat
from relatime.qmat import HERMITICITY_TOL, PSD_TOL, _check_state, _schur_state
from conftest import dense, plus_density, random_density, random_hermitian


class TestMakeDensity:
    def test_basis_projector_is_valid(self):
        rho = DensityMatrix([[1, 0], [0, 0]])
        assert rho.dim == 2
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]))

    def test_plus_projector_is_valid(self):
        rho = DensityMatrix([[0.5, 0.5], [0.5, 0.5]])
        assert purity(rho) == pytest.approx(1.0, abs=1e-12)

    def test_trace_error_reports_magnitude(self):
        with pytest.raises(TraceNotOneError, match="1.2"):
            DensityMatrix([[0.6, 0], [0, 0.6]])

    def test_not_hermitian(self):
        with pytest.raises(NotHermitianError, match="Hermitian"):
            DensityMatrix([[0.5, 0.5j], [0.5j, 0.5]])

    def test_not_positive(self):
        with pytest.raises(NotPositiveError, match="eigenvalue"):
            DensityMatrix([[1.5, 0], [0, -0.5]])

    def test_non_finite_rejected(self):
        with pytest.raises(QuantumStateError):
            DensityMatrix([[np.nan, 0], [0, 1]])

    def test_non_finite_state_has_one_message(self):
        message = "^density matrix has non-finite entries$"
        for arr in (
            [[np.nan, 0], [0, 1]], np.diag([np.inf, 0.5]), [[1, 1j * np.inf], [0, 0]]
        ):
            with pytest.raises(QuantumStateError, match=message):
                DensityMatrix(arr)
            with pytest.raises(QuantumStateError, match=message):
                _check_state(np.asarray(arr, dtype=complex))

    @pytest.mark.parametrize("view", [False, True], ids=["array", "view"])
    @pytest.mark.parametrize("make", [DensityMatrix, Observable])
    def test_caller_array_stays_the_callers(self, make, view):
        # the operator keeps a copy of a complex128 array its caller still
        # holds, or of a subclass view, which np.asarray turns into a new view
        arr = np.diag([1.0, 0.0]).astype(np.complex128)
        op = make(arr.view(type("Sub", (np.ndarray,), {})) if view else arr)
        arr[0, 0] = 0.5
        assert op.matrix[0, 0] == 1.0
        assert arr.flags.writeable and not op.matrix.flags.writeable

    def test_eigenbasis_stays_the_callers(self):
        m = np.diag([0.0, 1.0]).astype(np.complex128)
        h = Hamiltonian(m)
        for arr in (h.spectrum, h.eigenbasis):
            assert not arr.flags.writeable and not np.shares_memory(arr, m)
        m[:] = m[::-1]
        np.testing.assert_array_equal(h.spectrum, [0.0, 1.0])
        np.testing.assert_array_equal(np.abs(h.eigenbasis), np.eye(2))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.ones((2, 3)) / 6)

    def test_tolerances_are_fixed(self):
        with pytest.raises(TraceNotOneError):
            DensityMatrix([[0.6, 0], [0, 0.6]])
        with pytest.raises(TypeError):
            DensityMatrix([[0.6, 0], [0, 0.6]], trace_tol=0.5)
        for make in (Hamiltonian, Observable):
            with pytest.raises(TypeError):
                make([[0, 1], [0, 0]], herm_tol=2.0)

    @pytest.mark.parametrize("make, arr, message", [
        (Hamiltonian, np.zeros(3), "^expected a 2-d matrix, got ndim=1$"),
        (Observable, [[1.0, 0.0], [0.0, np.inf]], "^matrix has non-finite entries$"),
    ], ids=["hamiltonian-ndim", "observable-non-finite"])
    def test_operator_input_guards(self, make, arr, message):
        with pytest.raises(QuantumStateError, match=message):
            make(arr)

    def test_immutable(self):
        rho = DensityMatrix([[1, 0], [0, 0]])
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.5
        with pytest.raises(AttributeError):
            rho.dim = 3
        for make in (Hamiltonian, Observable):
            with pytest.raises(AttributeError, match=f"^{make.__name__} is immutable$"):
                make(np.diag([1.0, 0.0])).dim = 3


def _unit_skew(rng, dim: int) -> np.ndarray:
    """A random anti-Hermitian K with max |K - K^H| = 1."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    k = g - g.conj().T
    return k / np.max(np.abs(k - k.conj().T))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 12) | st.sampled_from([255, 256, 257, 600]),
    skew=st.floats(0.0, 0.9),
    scale=st.sampled_from([1e-6, 1.0, 1e8]),
    order=st.sampled_from(["C", "F"]),
)
def test_types_hold_the_hermitian_part(seed, dim, skew, scale, order):
    # a Hermitian M plus a skew the check admits: each type holds its input A's
    # Hermitian part A/2 + A^H/2, entry for entry, as a fresh C-ordered
    # read-only array, and leaves the caller's array as it was
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T + np.eye(dim)
    rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
    n = scale * random_hermitian(rng, dim)
    unit = _unit_skew(rng, dim)
    cases = [
        (DensityMatrix, rho + skew * HERMITICITY_TOL * unit),
        (Observable, n + skew * HERMITICITY_TOL * float(np.max(np.abs(n))) * unit),
    ]
    for make, arr in cases:
        arr = np.asarray(arr, order=order)
        kept = arr.copy()
        held = make(arr).matrix
        assert np.array_equal(held, arr / 2 + arr.conj().T / 2)
        assert held.flags.c_contiguous and not held.flags.writeable
        assert not np.shares_memory(held, arr)
        assert np.array_equal(arr, kept) and arr.flags.writeable


def test_entries_near_the_float_maximum_raise_no_warning():
    # the Hermitian part is summed as halves: 1e308 / 2 + 1e308 / 2 is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotPositiveError):
            DensityMatrix([[0.5, 1e308], [1e308, 0.5]])
        held = Observable([[0.0, 1e308], [1e308, 0.0]]).matrix
    assert np.array_equal(held, [[0.0, 1e308], [1e308, 0.0]])


def test_construction_peaks_are_one_part_each():
    # at d = 512, in units of one complex d x d array: the state's part and its
    # factor, the observable's part alone, and the energy frame's 3.5
    from relatime.evolution import _energy_frame

    d = 512
    rng = np.random.default_rng(5)
    m = random_hermitian(rng, d)
    rho = random_density(rng, d).matrix.copy()

    def peak(make, *args):
        tracemalloc.start()
        try:
            built = make(*args)
            return tracemalloc.get_traced_memory()[1] / (16 * d * d), built
        finally:
            tracemalloc.stop()

    state_peak, state = peak(DensityMatrix, rho)
    observable_peak, observable = peak(Observable, m)
    frame_peak, _ = peak(_energy_frame, state, Hamiltonian(m), observable)
    assert state_peak <= 2.01 and observable_peak <= 1.01 and frame_peak <= 3.51


def _block_diagonal(blocks):
    d = blocks.shape[1]
    dense = np.zeros((len(blocks) * d,) * 2, dtype=complex)
    for k, block in enumerate(blocks):
        dense[k * d:(k + 1) * d, k * d:(k + 1) * d] = block
    return dense


@pytest.mark.parametrize(
    "shift, error",
    [
        (np.zeros((2, 2)), None),
        (np.diag([0.4, -0.4]), NotPositiveError),
        (np.array([[0, 1e-3], [0, 0]]), NotHermitianError),
        (np.diag([1e-3, 0.0]), TraceNotOneError),
    ],
    ids=["valid", "not_positive", "not_hermitian", "trace_not_one"],
)
def test_block_stack_check_matches_dense_check(rng, shift, error):
    # a matrix of diagonal blocks, one of them shifted, passes the state check
    # exactly when it is a valid density matrix
    blocks = np.stack([random_density(rng, 2).matrix / 3 for _ in range(3)])
    blocks[1] = blocks[1] + shift
    dense = _block_diagonal(blocks)
    if error is None:
        _check_state(dense)
        DensityMatrix(dense)
        return
    with pytest.raises(error):
        _check_state(dense)
    with pytest.raises(error):
        DensityMatrix(dense)


def _state_with_smallest(rng, dim: int, smallest: float, trace: float = 1.0):
    """A Hermitian matrix of the given trace whose lowest eigenvalue is
    ``smallest``, in a random eigenbasis."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(a)
    rest = rng.uniform(0.5, 1.5, dim - 1)
    eigenvalues = np.concatenate([[smallest], rest * (trace - smallest) / rest.sum()])
    matrix = (q * eigenvalues) @ q.conj().T
    return 0.5 * (matrix + matrix.conj().T)


def _block_stack(rng, smallest: float):
    """Block-diagonal matrix of three 4x4 blocks of trace 1/3; the middle one
    has lowest eigenvalue ``smallest``."""
    blocks = [_state_with_smallest(rng, 4, 0.05, 1 / 3) for _ in range(3)]
    blocks[1] = _state_with_smallest(rng, 4, smallest, 1 / 3)
    return _block_diagonal(np.stack(blocks))


class TestPositivityCertificate:
    """The Cholesky factor of rho + PSD_TOL/2 I proves lambda_min > -PSD_TOL;
    without one, eigvalsh decides, so the verdict is eigvalsh's."""

    @pytest.fixture
    def eigvalsh_calls(self, monkeypatch):
        calls = []
        original = np.linalg.eigvalsh

        def counted(arr, *args, **kwargs):
            calls.append(arr.shape)
            return original(arr, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    @pytest.mark.parametrize("stack", [False, True], ids=["matrix", "stack"])
    @pytest.mark.parametrize(
        "factor, eigensolves, passes",
        [(0.25, 0, True), (0.5, None, True), (0.75, 1, True), (2.0, 1, False)],
    )
    def test_boundary(self, rng, eigvalsh_calls, stack, factor, eigensolves, passes):
        # factor 0.75 fails the Cholesky test (rho + PSD_TOL/2 I still has a
        # negative eigenvalue) and passes on eigvalsh; at 0.5 the shifted
        # matrix is singular, so either path may decide
        smallest = -factor * PSD_TOL
        if stack:
            arr = _block_stack(rng, smallest)
        else:
            arr = _state_with_smallest(rng, 6, smallest)
        if passes:
            _check_state(arr)
        else:
            with pytest.raises(NotPositiveError) as caught:
                _check_state(arr)
            assert caught.value.min_eigenvalue == pytest.approx(smallest, rel=1e-4)
            assert str(caught.value).startswith(
                "density matrix is not positive semidefinite: smallest eigenvalue"
            )
        if eigensolves is not None:
            assert len(eigvalsh_calls) == eigensolves

    def test_non_finite_stack_rejected(self):
        # every comparison with NaN is False, and Cholesky returns a NaN
        # factor without raising, so only an explicit test refuses these
        with pytest.raises(QuantumStateError, match="non-finite"):
            _check_state(_block_diagonal(np.full((3, 2, 2), np.nan)))
        inf = np.diag([np.inf, 0.5]).astype(complex)
        with pytest.raises(QuantumStateError, match="non-finite"):
            _check_state(inf)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 9),
        factor=st.floats(-3.0, 3.0),
        stack=st.booleans(),
    )
    def test_agrees_with_eigvalsh(self, seed, dim, factor, stack):
        rng = np.random.default_rng(seed)
        if stack:
            blocks = [_state_with_smallest(rng, dim, 0.05, 0.5)]
            blocks.append(_state_with_smallest(rng, dim, factor * PSD_TOL, 0.5))
            arr = _block_diagonal(np.stack(blocks))
        else:
            arr = _state_with_smallest(rng, dim, factor * PSD_TOL)
        smallest = float(np.min(np.linalg.eigvalsh(arr)))
        assume(abs(smallest + PSD_TOL) > 1e-12)
        if smallest < -PSD_TOL:
            with pytest.raises(NotPositiveError):
                _check_state(arr)
        else:
            _check_state(arr)


@pytest.fixture
def cholesky_dtypes(monkeypatch):
    """The dtype of every matrix qmat hands to np.linalg.cholesky."""
    dtypes = []
    original = np.linalg.cholesky

    def recorded(arr, *args, **kwargs):
        dtypes.append(arr.dtype.kind)
        return original(arr, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return dtypes


def _unit_gram(rng, dim: int, rank: int) -> np.ndarray:
    """A real, exactly symmetric PSD matrix of the given rank, unit diagonal."""
    v = rng.standard_normal((rank, dim))
    v /= np.linalg.norm(v, axis=0)
    gram = v.T @ v
    gram = 0.5 * (gram + gram.T)
    np.fill_diagonal(gram, 1.0)
    return gram


def _envelope(kind: str, spectrum: np.ndarray, r: float):
    """A sweep's envelope Phi' = kernel._envelope(|E_i - E_j|), for a kernel of
    width r / max|E|, with phi at the same gaps in long double."""
    tau = r / float(np.max(np.abs(spectrum)))
    kernel = {"delta": DeltaKernel(tau), "gaussian": GaussianKernel(tau, tau),
              "uniform": UniformKernel(tau, tau)}[kind]
    built = kernel._envelope(np.abs(spectrum[:, None] - spectrum[None, :]))
    gaps = np.abs(np.subtract.outer(*[spectrum.astype(np.longdouble)] * 2))
    if kind == "delta":
        exact = np.ones_like(gaps)
    elif kind == "gaussian":
        exact = np.exp(-0.5 * np.longdouble(kernel.variance) * gaps**2)
    else:
        x = gaps * np.longdouble(kernel.half_width)
        safe = np.where(x == 0, 1, x)
        exact = np.where(x == 0, 1, np.sin(safe) / safe)
    return built, exact


class TestSchurCertificate:
    """A sweep point's X = rho * Phi is a state by construction: Phi is built
    from |E_i - E_j| by a characteristic function, so X's bound is rho's margin
    plus O(d eps) and roundoff, and no point factors or walks X. An envelope that
    fails the premise (real, exactly symmetric, phi_ii = 1, |phi_ij| <= 1 + eps,
    1^T phi 1 >= -d^2 eps) is refused."""

    def test_forms_x_itself(self, rng, cholesky_dtypes, monkeypatch):
        state = random_density(rng, 5)
        phi = _unit_gram(rng, 5, 3)
        cholesky_dtypes.clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # never called
        monkeypatch.setattr(qmat, "_check_state", None)  # nor is X walked
        x, _ = _schur_state(state, phi)
        assert np.array_equal(x, state.matrix * phi)
        assert cholesky_dtypes == []

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 8),
        factor=st.floats(-3.0, 3.0),
        rank=st.integers(1, 8),
    )
    def test_verdict_agrees_with_eigvalsh(self, seed, dim, factor, rank):
        rng = np.random.default_rng(seed)
        rho = _state_with_smallest(rng, dim, factor * PSD_TOL)
        try:
            state = DensityMatrix(rho)
        except NotPositiveError:
            assume(False)  # the sweep stops at rho_s before any point
        phi = _unit_gram(rng, dim, min(rank, dim))
        smallest = float(np.min(np.linalg.eigvalsh(rho * phi)))
        assume(abs(smallest + PSD_TOL) > 1e-12)
        if smallest < -PSD_TOL:
            with pytest.raises(NotPositiveError):
                _schur_state(state, phi)
        else:
            _schur_state(state, phi)

    def test_state_passed_only_by_eigvalsh_falls_back(
        self, rng, monkeypatch, cholesky_dtypes
    ):
        # rho proved only lambda_min >= -(1 - 1e-6) PSD_TOL, so the bound does not
        # close; X = rho is factored, fails, and eigvalsh passes it as it did rho
        rho = _state_with_smallest(rng, 2, -(1 - 1e-6) * PSD_TOL)
        state = DensityMatrix(rho)
        assert state._margin == pytest.approx((1 - 1e-6) * PSD_TOL, rel=1e-9)
        cholesky_dtypes.clear()
        solved = []
        original = np.linalg.eigvalsh
        monkeypatch.setattr(
            np.linalg, "eigvalsh", lambda arr: solved.append(arr) or original(arr)
        )
        x, margin = _schur_state(state, np.ones((2, 2)))
        assert np.array_equal(x, rho)
        assert cholesky_dtypes == ["c"]
        assert len(solved) == 1 and solved[0] is x
        assert margin == pytest.approx(state._margin, rel=1e-6)

    def test_concentrated_state_is_certified_at_large_dim(
        self, cholesky_dtypes, monkeypatch
    ):
        # the bound grows as d eps max rho_ii: 1.4e-12 at d = 1600 with
        # rho_00 = 1, far inside PSD_TOL, so X is not factored
        dim = 1600
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        state = DensityMatrix(rho)
        cholesky_dtypes.clear()
        _, bound = _schur_state(state, np.eye(dim))
        assert cholesky_dtypes == []
        assert bound == pytest.approx(0.5 * PSD_TOL + dim * qmat._ENVELOPE_EPS)

    def test_sign_flipped_envelope_refused(self):
        # Phi = 2I - J keeps phi(0) = 1 and |phi| <= 1 but is indefinite, and
        # X = rho * Phi is not a state: 1^T Phi 1 = -3 refuses it
        state = plus_density(3)
        phi = 2.0 * np.eye(3) - np.ones((3, 3))
        with pytest.raises(QuantumStateError, match="^envelope is not a characteri"):
            _schur_state(state, phi)

    def test_growing_envelope_refused(self):
        # exp(+v w^2 / 2) is not a characteristic function: |phi| > 1 off 0
        state = plus_density(3)
        gaps = np.abs(np.subtract.outer(*[np.array([0.0, 1.0, 2.5])] * 2))
        with pytest.raises(QuantumStateError, match="^envelope is not a characteri"):
            _schur_state(state, np.exp(0.5 * 0.01 * gaps**2))

    @pytest.mark.parametrize("entry, value, refused", [
        ((0, 1), 1.0 + 8 * 2.0**-53, False),
        ((0, 1), 1.0 + 10 * 2.0**-53, True),
        ((0, 1), -1.0 - 10 * 2.0**-53, True),
        ((0, 1), np.nan, True),
        ((1, 1), np.nan, True),
        ((1, 1), 1.0 - 2.0**-53, True),
        ((1, 1), 1.0 + 2.0**-52, True),
    ], ids=["edge", "above", "below", "nan", "nan_at_zero", "under_one", "over_one"])
    def test_necessary_condition(self, entry, value, refused):
        # phi_ii = 1 exactly and |phi_ij| <= 1 + eps, eps = 8 u; NaN fails
        phi = np.eye(3)
        phi[entry] = phi[entry[::-1]] = value
        state = DensityMatrix(np.diag([0.2, 0.3, 0.5]))
        if refused:
            with pytest.raises(QuantumStateError, match="^envelope is not a"):
                _schur_state(state, phi)
        else:
            _schur_state(state, phi)

    @pytest.mark.parametrize("kind", ["delta", "gaussian", "uniform"])
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 64),
        scale=st.floats(-40.0, np.log2(1e8)).map(lambda k: 2.0**k),
        width=st.floats(-3.0, 3.0).map(lambda k: 10.0**k),
        factor=st.floats(-1.0, 1.0),
    )
    def test_construction_bound(self, kind, seed, dim, scale, width, factor):
        # Phi' is within eps of phi entry by entry (so within d eps of a PSD
        # matrix), and lambda_min(X) >= -(the bound X is certified with). The
        # premise alone makes X finite, exactly Hermitian and of rho's trace to
        # the bit, which is why no point walks X for them.
        rng = np.random.default_rng(seed)
        spectrum = np.sort(rng.uniform(-1.0, 1.0, dim)) * scale
        phi, exact = _envelope(kind, spectrum, width)
        eps = qmat._ENVELOPE_EPS
        assert float(np.max(np.abs(phi - exact))) <= eps
        assert float(np.min(np.linalg.eigvalsh(phi))) >= -dim * eps
        try:
            state = DensityMatrix(_state_with_smallest(rng, dim, factor * PSD_TOL))
        except NotPositiveError:
            assume(False)
        x, bound = _schur_state(state, phi)
        assert float(np.min(np.linalg.eigvalsh(x))) >= -bound
        assert np.isfinite(x).all() and np.array_equal(x, x.conj().T)
        assert np.trace(x) == np.trace(state.matrix)


class TestHermitianDefect:
    """The defect is taken over row bands of the upper triangle; with the
    tolerance at -inf every defect is reported, so its value shows."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 300) | st.sampled_from([127, 128, 129, 256, 257]),
        stack=st.sampled_from([(), (1,), (3,)]),
        hermitian=st.booleans(),
        poison=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    def test_equals_full_defect(self, seed, dim, stack, hermitian, poison):
        rng = np.random.default_rng(seed)
        shape = (*stack, dim, dim)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if hermitian:
            a = a + np.swapaxes(a, -1, -2).conj()
            a += 1e-13 * rng.standard_normal(shape)  # roundoff-size defects
        if poison is not None:
            index = tuple(rng.integers(0, n) for n in shape)
            a[index] = rng.choice([complex(poison, 0.0), complex(0.0, poison)])
        if stack:  # the blocks as one block-diagonal matrix
            a = _block_diagonal(a)
        with np.errstate(invalid="ignore"), pytest.MonkeyPatch.context() as patch:
            expected = np.max(np.abs(a - a.T.conj()))
            patch.setattr(qmat, "HERMITICITY_TOL", -np.inf)
            if np.isnan(expected):  # NaN > -inf is False: no report, as before
                qmat._check_hermitian(a, "matrix")
                return
            with pytest.raises(NotHermitianError) as caught:
                qmat._check_hermitian(a, "matrix")
        assert caught.value.violation == float(expected)


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e7, 1e8])
@pytest.mark.parametrize("make", [Hamiltonian, Observable])
def test_operator_hermiticity_is_judged_at_its_scale(make, scale):
    # an unsymmetrized (Q E) Q^dag has a roundoff skew of order u max|M|, which
    # an absolute tolerance refused from s = 1e7; HERMITICITY_TOL max|M| admits
    # it at every s and refuses a skew of 1e-6 max|M| at every s
    rng = np.random.default_rng(16)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))
    m = (q * (scale * np.arange(16) / 16)) @ q.conj().T
    make(m)
    m[0, 1] += 1e-6 * np.max(np.abs(m))
    with pytest.raises(NotHermitianError):
        make(m)


class TestSpectralDecompose:
    def test_already_diagonal_sorts_ascending(self):
        h = Hamiltonian(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(h.spectrum, [1.0, 3.0])
        # eigenbasis is a permutation of the computational basis, up to phase
        np.testing.assert_allclose(np.abs(h.eigenbasis), [[0, 1], [1, 0]], atol=1e-12)

    def test_pauli_x_spectrum_and_vectors(self):
        h = Hamiltonian([[0, 1], [1, 0]])
        np.testing.assert_allclose(h.spectrum, [-1.0, 1.0], atol=1e-12)
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        assert abs(minus @ h.eigenbasis[:, 0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(plus @ h.eigenbasis[:, 1]) == pytest.approx(1.0, abs=1e-12)

    def test_random_reconstruction(self, rng):
        m = random_hermitian(rng, 6, scale=3.0)
        h = Hamiltonian(m)
        rebuilt = (h.eigenbasis * h.spectrum) @ h.eigenbasis.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 8, 17, 64])
    def test_roundtrip_up_to_dim_64(self, rng, dim):
        m = random_hermitian(rng, dim, scale=5.0)
        h = Hamiltonian(m)
        rebuilt = (h.eigenbasis * h.spectrum) @ h.eigenbasis.conj().T
        assert np.max(np.abs(rebuilt - m)) <= 1e-9
        assert np.all(np.diff(h.spectrum) >= 0)
        gram = h.eigenbasis.conj().T @ h.eigenbasis
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            Hamiltonian([[0, 1], [2, 0]])

    def test_overflowing_spectrum_is_refused_as_not_finite(self):
        """eigh returns an infinite eigenvalue for entries near the float
        maximum; it is refused before any arithmetic on it can warn."""
        from relatime import EigensolverError

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for entry, spectrum in [(1e308, r"0\.\.inf"), (-1e308, r"-inf\.\.0")]:
                with pytest.raises(
                    EigensolverError, match=rf"^spectrum is not finite: \[{spectrum}\]$"
                ):
                    Hamiltonian(np.full((2, 2), entry))

    def test_eigensolver_failure_is_refused(self, monkeypatch):
        from relatime import EigensolverError

        def no_convergence(arr):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", no_convergence)
        with pytest.raises(
            EigensolverError,
            match=r"^eigensolver did not converge: Eigenvalues did not converge$",
        ) as caught:
            Hamiltonian(np.eye(2))
        assert isinstance(caught.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
    @pytest.mark.parametrize("defect, message", [
        ("swap", "spectral reconstruction error"),
        ("perturb", "eigenbasis is not unitary"),
        ("energy", "spectral reconstruction error"),
        ("nan", "eigenbasis is not unitary"),
    ])
    def test_probe_refuses_a_wrong_eigensystem_at_any_scale(
        self, rng, monkeypatch, defect, message, scale
    ):
        from relatime import EigensolverError

        corrupt_eigh(monkeypatch, defect)
        with pytest.raises(EigensolverError, match=f"^{message}"):
            Hamiltonian(scale * random_hermitian(rng, 16))

    @pytest.mark.parametrize("scale", [1e-13, 1e-9, 1e-6, 1.0, 1e3, 1e6, 1e8])
    @pytest.mark.parametrize("dim", [2, 16, 256])
    def test_valid_hamiltonian_constructs_at_any_scale(self, rng, dim, scale):
        m = scale * random_hermitian(rng, dim)
        assert np.max(np.abs(dense(Hamiltonian(m)) - m)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [8, 64, 256])
    def test_every_admitted_skew_constructs(self, dim):
        # eigh reads H's lower triangle L and the probe compares with H x; the
        # budget allows |(H - L) x| <= d defect, so what the check admits builds
        rng = np.random.default_rng(0)
        m = random_hermitian(rng, dim)
        unit = float(np.max(np.abs(m))) * _unit_skew(rng, dim)
        for relative in (1e-12, 1e-11, 0.9e-10):
            h = Hamiltonian(m + relative * unit)
            assert np.max(np.abs(dense(h) - m)) <= 1e-9
        with pytest.raises(NotHermitianError):
            Hamiltonian(m + 2e-10 * unit)

    def test_construction_holds_one_dense_array(self, rng):
        # eigh's work copy and its basis at the peak; the basis alone after
        d = 512
        m = random_hermitian(rng, d)
        tracemalloc.start()
        try:
            h = Hamiltonian(m)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert h.dim == d
        assert peak <= 2.5 * 16 * d * d
        assert held <= 1.1 * 16 * d * d


def corrupt_eigh(monkeypatch, defect: str) -> None:
    """Make np.linalg.eigh return a wrong eigensystem: the first and last
    eigenvectors swapped, one entry of the first moved by 1e-9 or made NaN, or
    the largest eigenvalue off by 1e-7 relative."""
    eigh = np.linalg.eigh

    def corrupted(arr):
        energies, basis = eigh(arr)
        if defect == "swap":
            basis[:, [0, -1]] = basis[:, [-1, 0]]
        elif defect in ("perturb", "nan"):
            basis[0, 0] += 1e-9 if defect == "perturb" else np.nan
        else:
            k = int(np.argmax(np.abs(energies)))
            energies[k] *= 1 + 1e-7
        return energies, basis

    monkeypatch.setattr(np.linalg, "eigh", corrupted)


class TestTensor:
    def test_identity_product(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal_product(self):
        out = tensor(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_left_factor_is_slow_index(self):
        # S-left convention: the first factor changes the slow (block) index
        out = tensor(np.diag([1.0, 2.0]), np.eye(2))
        np.testing.assert_allclose(out, np.diag([1.0, 1.0, 2.0, 2.0]))

    def test_trace_multiplicative(self, rng):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        lhs = np.trace(tensor(a, b))
        rhs = np.trace(a) * np.trace(b)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_dimension_cap(self, monkeypatch):
        def kron(a, b):
            raise AssertionError("allocated a product above the cap")

        monkeypatch.setattr(np, "kron", kron)
        with pytest.raises(DimensionOverflowError, match="4160 exceeds cap 4096"):
            tensor(np.eye(65), np.eye(64))


def naive_partial_trace(matrix, d_s, d_c, keep):
    """Index-summation oracle, written without reshape tricks."""
    if keep == "S":
        out = np.zeros((d_s, d_s), dtype=complex)
        for i in range(d_s):
            for k in range(d_s):
                for j in range(d_c):
                    out[i, k] += matrix[i * d_c + j, k * d_c + j]
    else:
        out = np.zeros((d_c, d_c), dtype=complex)
        for j in range(d_c):
            for l in range(d_c):
                for i in range(d_s):
                    out[j, l] += matrix[i * d_c + j, i * d_c + l]
    return out


class TestPartialTrace:
    def test_product_state_reduces_exactly(self, rng):
        rho_s = random_density(rng, 3)
        rho_c = random_density(rng, 2)
        joint = DensityMatrix(tensor(rho_s, rho_c))
        back = partial_trace(joint, (3, 2), keep="S")
        assert np.max(np.abs(back.matrix - rho_s.matrix)) <= 1e-10
        other = partial_trace(joint, (3, 2), keep="C")
        assert np.max(np.abs(other.matrix - rho_c.matrix)) <= 1e-10

    def test_bell_state_marginal_is_maximally_mixed(self):
        bell = np.zeros((4, 4))
        for a in (0, 3):
            for b in (0, 3):
                bell[a, b] = 0.5
        reduced = partial_trace(DensityMatrix(bell), (2, 2), keep="C")
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_matches_index_summation_oracle(self, rng):
        rho = random_density(rng, 12)
        for keep in ("S", "C"):
            got = partial_trace(rho, (4, 3), keep=keep)
            want = naive_partial_trace(rho.matrix, 4, 3, keep)
            assert np.max(np.abs(got.matrix - want)) <= 1e-12
            assert abs(np.trace(got.matrix) - 1.0) <= 1e-10

    def test_dimension_mismatch(self, rng):
        rho = random_density(rng, 6)
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, (4, 2), keep="S")

    def test_bad_tag(self, rng):
        rho = random_density(rng, 4)
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, (2, 2), keep="Q")


class TestExpectation:
    def test_identity_gives_trace(self, rng):
        rho = random_density(rng, 5)
        assert expectation(Observable(np.eye(5)), rho) == pytest.approx(1.0, abs=1e-12)

    def test_excited_population_of_plus(self):
        n = Observable(np.diag([0.0, 1.0]))
        assert expectation(n, plus_density()) == pytest.approx(0.5, abs=1e-12)

    def test_eigen_expansion_oracle(self, rng):
        n_mat = random_hermitian(rng, 5, scale=2.0)
        rho = random_density(rng, 5)
        vals, vecs = np.linalg.eigh(n_mat)
        oracle = sum(
            vals[k] * float((vecs[:, k].conj() @ rho.matrix @ vecs[:, k]).real)
            for k in range(5)
        )
        assert expectation(Observable(n_mat), rho) == pytest.approx(oracle, abs=1e-10)

    def test_linear_in_observable_and_state(self, rng):
        for _ in range(5):
            n1 = random_hermitian(rng, 4)
            n2 = random_hermitian(rng, 4)
            rho1 = random_density(rng, 4)
            rho2 = random_density(rng, 4)
            a, b = rng.uniform(0, 1), rng.uniform(0, 1)
            mix_n = Observable(a * n1 + b * n2)
            lhs = expectation(mix_n, rho1)
            rhs = a * expectation(Observable(n1), rho1) + b * expectation(
                Observable(n2), rho1
            )
            assert abs(lhs - rhs) <= 1e-10
            p = rng.uniform(0, 1)
            mix_rho = DensityMatrix(p * rho1.matrix + (1 - p) * rho2.matrix)
            lhs = expectation(Observable(n1), mix_rho)
            rhs = p * expectation(Observable(n1), rho1) + (1 - p) * expectation(
                Observable(n1), rho2
            )
            assert abs(lhs - rhs) <= 1e-10

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            expectation(Observable(np.eye(3)), random_density(rng, 2))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e8])
    def test_imaginary_part_is_judged_against_its_operands(self, scale, rng):
        # roundoff scales with N; a skew part that Observable admits (relative
        # to max|N|) is allowed for; an unchecked non-Hermitian operand is refused
        n = random_hermitian(rng, 64, scale=scale)
        rho = random_density(rng, 64)
        assert expectation(Observable(n), rho) == pytest.approx(
            float(np.sum(n * rho.matrix.T).real), rel=1e-12
        )
        skew = 0.45j * HERMITICITY_TOL * float(np.max(np.abs(n)))
        skewed = Observable(n + np.diag(np.full(64, skew)))
        assert expectation(skewed, rho) == pytest.approx(
            float(np.sum(n * rho.matrix.T).real), rel=1e-9, abs=1e-9
        )
        bound = qmat._roundoff(scale, 4 * 64)
        with pytest.raises(QuantumStateError, match="imaginary part"):
            qmat._real_expectation(complex(1.0, 1e-3 * scale + 1e-8), bound)

    @pytest.mark.parametrize("scale", [1e-6, 1e8])
    def test_largest_admitted_skews_are_allowed_for(self, scale):
        # N and rho skewed to 0.9 of what their checks admit, aligned so that the
        # skews alone would give Im Tr(N rho) = 0.45 HERMITICITY_TOL s d (d + 1);
        # each type holds its input's Hermitian part, so no skew is left to read
        d, tol = 4, HERMITICITY_TOL
        signs = np.ones((d, d)) - np.eye(d) + np.diag((-1.0) ** np.arange(d))
        n_in = scale * signs + 0.45j * tol * scale * np.ones((d, d))
        rho_in = np.ones((d, d)) / d + 0.45j * tol * signs
        n, rho = Observable(n_in), DensityMatrix(rho_in)
        for held, given in ((n.matrix, n_in), (rho.matrix, rho_in)):
            assert np.array_equal(held, given / 2 + given.conj().T / 2)
        assert expectation(n, rho) == pytest.approx((d - 1) * scale, rel=1e-12)

    def test_skew_beyond_the_admitted_is_refused_at_small_scale(self):
        # an unchecked N skewed 8 d times past HERMITICITY_TOL max|N| / 2 gives
        # Im Tr(N rho) = 2 d^2 HERMITICITY_TOL s, twice the skew term; an
        # absolute check's bound, about d HERMITICITY_TOL / 2, would admit it
        d, scale = 4, 1e-6
        n = Observable.__new__(Observable)
        object.__setattr__(n, "dim", d)
        object.__setattr__(n, "matrix", scale * np.ones((d, d))
                           + 2j * d * HERMITICITY_TOL * scale * np.ones((d, d)))
        with pytest.raises(QuantumStateError, match="imaginary part"):
            expectation(n, DensityMatrix(np.ones((d, d)) / d))

    @pytest.mark.parametrize("scale", [50.0, 1e8])
    def test_state_skew_is_allowed_for(self, scale):
        # DensityMatrix keeps the skew part its check admits; that part's
        # imaginary share of Tr(N rho) grows with N (5e-10 at N = 50 sigma_x)
        rho = DensityMatrix([[0.5, 0.5 + 1e-11j], [0.5, 0.5]])
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert expectation(Observable(scale * sigma_x), rho) == pytest.approx(scale)


class TestPurity:
    def test_pure_state(self, rng):
        from conftest import random_pure_density

        assert purity(random_pure_density(rng, 6)) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_qubit(self):
        assert purity(DensityMatrix(np.eye(2) / 2)) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_qutrit(self):
        assert purity(DensityMatrix(np.eye(3) / 3)) == pytest.approx(1 / 3, abs=1e-12)

    def test_range(self, rng):
        for dim in (2, 3, 7):
            value = purity(random_density(rng, dim))
            assert 1.0 / dim - 1e-9 <= value <= 1.0 + 1e-9


class TestTensorPartialTraceConsistency:
    def test_roundtrip_over_random_pairs(self, rng):
        for d_s, d_c in ((2, 2), (2, 5), (4, 3)):
            rho_s = random_density(rng, d_s)
            rho_c = random_density(rng, d_c)
            joint = DensityMatrix(tensor(rho_s, rho_c))
            back = partial_trace(joint, (d_s, d_c), keep="S")
            assert np.max(np.abs(back.matrix - rho_s.matrix)) <= 1e-10
