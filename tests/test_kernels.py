import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relatime import (
    DeltaKernel,
    DensityMatrix,
    EmptyTableError,
    GaussianKernel,
    Hamiltonian,
    NonPositiveLambdaError,
    QuadratureRule,
    QuantumStateError,
    ScenarioParseError,
    ScenarioValidationError,
    TabulatedKernel,
    UniformKernel,
    evolve_relational_dephasing,
    make_gaussian_kernel,
    parse_scenario,
    quadrature_for,
)
from relatime import kernels

_TIMES = st.floats(-10.0, 10.0)
_WIDTHS = st.floats(1e-3, 10.0)
KERNELS = st.one_of(
    st.builds(DeltaKernel, _TIMES),
    st.builds(GaussianKernel, _WIDTHS, _WIDTHS),
    st.builds(UniformKernel, _WIDTHS, _TIMES),
    st.lists(st.tuples(_TIMES, st.floats(0.01, 10.0)), min_size=1, max_size=6).map(
        lambda rows: TabulatedKernel(*zip(*rows))
    ),
)


def chi(kernel, omega):
    """chi(omega) for one gap."""
    return complex(kernel._chi(omega))


def table_kernel(rows: str) -> TabulatedKernel:
    """The kernel a scenario's ``table { }`` block reads."""
    return parse_scenario(
        "system {\n  dimension 1\n  spectrum 0.0\n  state plus_state\n}\n"
        "kernel {\n  kind tabulated\n  table {\n" + rows + "\n  }\n}\n"
        "observable {\n  preset number_op\n}\n"
    ).kernel_spec.build()


def quadrature_characteristic(kernel, omega, nodes=64):
    """Independent oracle: evaluate chi by explicit quadrature."""
    rule = quadrature_for(kernel, nodes)
    return complex(np.sum(rule.weights * np.exp(-1j * omega * rule.nodes)))


def kernel_zoo():
    return [
        DeltaKernel(1.3),
        make_gaussian_kernel(0.1, 2.0),
        make_gaussian_kernel(1.0, 0.5),
        UniformKernel(0.7, 1.1),
        TabulatedKernel([0.0, 0.5, 1.0, 2.5], [1.0, 3.0, 2.0, 0.5]),
    ]


class TestGaussianFactory:
    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(NonPositiveLambdaError):
            make_gaussian_kernel(0.0, 1.0)
        with pytest.raises(NonPositiveLambdaError):
            make_gaussian_kernel(-0.2, 1.0)
        with pytest.raises(NonPositiveLambdaError, match="^lam must be > 0, got 0.0$"):
            GaussianKernel(0.0, 1.0)
        for t_b in (0.0, 1.0):
            with pytest.raises(QuantumStateError, match="lambda must be finite"):
                make_gaussian_kernel(np.inf, t_b)

    def test_rejects_negative_reading(self):
        with pytest.raises(QuantumStateError):
            make_gaussian_kernel(0.1, -1.0)

    @pytest.mark.parametrize("t_b", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_reading(self, t_b):
        with pytest.raises(QuantumStateError, match=r"^kernel t_b must be finite"):
            make_gaussian_kernel(0.1, t_b)

    def test_zero_reading_degenerates_to_delta(self):
        kernel = make_gaussian_kernel(0.1, 0.0)
        assert isinstance(kernel, DeltaKernel)
        assert kernel.t_b == 0.0

    def test_direct_construction_requires_positive_reading(self):
        for lam, t_b in ((0.1, 0.0), (0.1, np.nan), (0.1, np.inf), (np.inf, 1.0)):
            with pytest.raises(QuantumStateError):
                GaussianKernel(lam, t_b)

    def test_mean_and_variance(self):
        kernel = make_gaussian_kernel(0.1, 2.0)
        rule = quadrature_for(kernel, 64)
        mean = float(rule.weights @ rule.nodes)
        var = float(rule.weights @ (rule.nodes - mean) ** 2)
        assert mean == pytest.approx(2.0, abs=1e-10)
        assert var == pytest.approx(0.2, abs=1e-10)

    def test_pdf_normalizes_on_wide_grid(self):
        kernel = make_gaussian_kernel(0.5, 3.0)
        grid = np.linspace(3.0 - 12, 3.0 + 12, 20001)
        mass = np.trapezoid(kernel.pdf(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-10)
        assert np.all(kernel.pdf(grid) >= 0)

    def test_raw_hermite_mass_is_unity(self):
        # before renormalization the mapped rule integrates P to 1 already
        x, w = np.polynomial.hermite.hermgauss(64)
        assert abs(w.sum() / np.sqrt(np.pi) - 1.0) <= 1e-10


class TestDeltaAndUniform:
    def test_reject_bad_parameters(self):
        for make, args in (
            (DeltaKernel, (np.nan,)),
            (DeltaKernel, (np.inf,)),
            (UniformKernel, (0.0, 1.0)),
            (UniformKernel, (np.inf, 1.0)),
            (UniformKernel, (1.0, np.nan)),
        ):
            with pytest.raises(QuantumStateError):
                make(*args)


class TestQuadratureFor:
    def test_delta_single_node(self):
        rule = quadrature_for(DeltaKernel(5.0), 99)
        np.testing.assert_allclose(rule.nodes, [5.0])
        np.testing.assert_allclose(rule.weights, [1.0])

    def test_gaussian_weights_sum_to_one(self):
        rule = quadrature_for(make_gaussian_kernel(1.0, 1.0), 32)
        assert rule.node_count == 32
        assert abs(rule.weights.sum() - 1.0) <= 1e-12

    def test_uniform_first_moment_vanishes_at_origin(self):
        rule = quadrature_for(UniformKernel(1.0, 0.0), 101)
        assert abs(rule.weights @ rule.nodes) <= 1e-10

    def test_uniform_single_node_degenerates_to_center(self):
        rule = quadrature_for(UniformKernel(1.0, 2.0), 1)
        np.testing.assert_allclose(rule.nodes, [2.0])

    def test_tabulated_returns_renormalized_table(self):
        kernel = TabulatedKernel([0.0, 1.0], [3.0, 1.0])
        rule = quadrature_for(kernel, 1000)
        np.testing.assert_allclose(rule.nodes, [0.0, 1.0])
        np.testing.assert_allclose(rule.weights, [0.75, 0.25])

    def test_rejects_nonpositive_node_count(self):
        with pytest.raises(QuantumStateError):
            quadrature_for(DeltaKernel(0.0), 0)


class TestQuadratureRuleInvariants:
    def test_rejects_negative_weights(self):
        with pytest.raises(QuantumStateError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.5, -0.5]))

    def test_rejects_bad_normalization(self):
        with pytest.raises(QuantumStateError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.4]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(QuantumStateError):
            QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]))

    def test_rejects_non_finite_nodes(self):
        for nodes, weights in (
            ([np.inf], [1.0]), ([0, 1], [0.5, np.nan]), ([0], [np.inf])
        ):
            with pytest.raises(QuantumStateError, match="must be finite"):
                QuadratureRule(np.array(nodes), np.array(weights))

    def test_immutable(self):
        rule = QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(AttributeError, match="^QuadratureRule is immutable$"):
            rule.nodes = np.array([2.0, 3.0])
        with pytest.raises(ValueError):
            rule.weights[0] = 1.0
        np.testing.assert_array_equal(rule.nodes, [0.0, 1.0])


class TestCharacteristic:
    def test_unit_at_zero_gap_for_all_kinds(self):
        for kernel in kernel_zoo():
            value = chi(kernel, 0.0)
            assert abs(value - 1.0) <= 1e-9, kernel

    def test_gaussian_closed_form_vs_quadrature(self):
        kernel = make_gaussian_kernel(0.1, 2.0)
        got = chi(kernel, 1.0)
        assert abs(got) == pytest.approx(np.exp(-0.1), abs=1e-12)
        oracle = quadrature_characteristic(kernel, 1.0, nodes=64)
        assert abs(got - oracle) <= 1e-9

    def test_delta_pure_phase(self):
        got = chi(DeltaKernel(3.0), np.pi)
        assert got == pytest.approx(-1.0 + 0.0j, abs=1e-12)
        assert abs(got) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_matches_dense_trapezoid(self):
        kernel = UniformKernel(1.0, 0.6)
        for omega in (0.3, 2.0, -4.5):
            got = chi(kernel, omega)
            oracle = quadrature_characteristic(kernel, omega, nodes=4001)
            assert abs(got - oracle) <= 1e-5

    def test_uniform_series_branch_near_zero(self):
        kernel = UniformKernel(1.0, 0.0)
        omega = 5e-9
        got = chi(kernel, omega)
        assert got == pytest.approx(1.0 - omega**2 / 6.0, abs=1e-15)

    def test_tabulated_matches_manual_sum(self):
        kernel = TabulatedKernel([0.0, 2.0], [1.0, 1.0])
        got = chi(kernel, 1.5)
        want = 0.5 * (1.0 + np.exp(-1j * 3.0))
        assert abs(got - want) <= 1e-12

    def test_magnitude_bounded_by_one(self, rng):
        for kernel in kernel_zoo():
            for omega in rng.uniform(-50, 50, size=25):
                assert abs(chi(kernel, float(omega))) <= 1 + 1e-9

    def test_hermitian_symmetry(self, rng):
        for kernel in kernel_zoo():
            for omega in rng.uniform(-20, 20, size=10):
                plus = chi(kernel, float(omega))
                minus = chi(kernel, float(-omega))
                assert abs(minus - np.conj(plus)) <= 1e-12

    def test_gaussian_quadrature_accuracy_window(self, rng):
        # 64 nodes resolve the closed form to 1e-9 for |omega| sigma <= 10
        for lam, t_b in ((0.1, 2.0), (1.0, 1.0), (0.01, 10.0)):
            kernel = make_gaussian_kernel(lam, t_b)
            sigma = np.sqrt(lam * t_b)
            for frac in (0.1, 0.5, 1.0):
                omega = 10.0 * frac / sigma
                got = chi(kernel, omega)
                oracle = quadrature_characteristic(kernel, omega, nodes=64)
                assert abs(got - oracle) <= 1e-9

    def test_gaussian_magnitude_decreases_with_reading(self):
        omega = 0.8
        magnitudes = [
            abs(chi(make_gaussian_kernel(0.2, t_b), omega))
            for t_b in (0.5, 1.0, 2.0, 5.0, 10.0)
        ]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


class TestTabulated:
    def test_weighted_mean_reading(self):
        kernel = TabulatedKernel([0.0, 4.0], [1.0, 3.0])
        assert kernel.t_b == pytest.approx(3.0)

    def test_rejects_negative_weights(self):
        with pytest.raises(QuantumStateError):
            TabulatedKernel([0.0, 1.0], [1.0, -0.1])

    def test_rejects_empty(self):
        with pytest.raises(EmptyTableError):
            TabulatedKernel([], [])

    def test_rejects_zero_mass(self):
        with pytest.raises(QuantumStateError):
            TabulatedKernel([0.0, 1.0], [0.0, 0.0])

    @pytest.mark.parametrize("times, weights, message", [
        ([0, 1], [1], r"^times/weights shapes differ: \(2,\) vs \(1,\)$"),
        ([0.0, np.nan], [1.0, 1.0], "^table entries must be finite$"),
    ], ids=["shapes", "non-finite-time"])
    def test_rejects_malformed_table(self, times, weights, message):
        with pytest.raises(QuantumStateError, match=message):
            TabulatedKernel(times, weights)

    def test_parse_table_text(self):
        rows = """
        # watch error histogram
        0.0 1    # start
        0.5\t2.0
        1.0 1
        """
        kernel = table_kernel(rows)
        np.testing.assert_allclose(kernel.times, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(kernel.weights, [0.25, 0.5, 0.25])

    def test_parse_rejects_bad_rows(self):
        with pytest.raises(ScenarioParseError, match="^line 9: table row expects"):
            table_kernel("0.0 1 extra")
        with pytest.raises(ScenarioParseError, match="expects numbers"):
            table_kernel("zero 1")
        with pytest.raises(ScenarioValidationError, match="at least one row"):
            table_kernel("# only a comment")


    @pytest.mark.parametrize("rows", [2, 3, 7, 12, 84, 10**6])
    def test_envelope_in_blocks_equals_the_one_product(self, monkeypatch, rows):
        # every gap is one dot product over all atoms, whatever its block
        rng = np.random.default_rng(3)
        kernel = TabulatedKernel(rng.uniform(0, 5, 16), rng.uniform(0.1, 1, 16))
        omega = rng.uniform(-3, 3, (12, 7))  # 84 gaps
        want = np.exp(-1j * np.multiply.outer(omega, kernel.times - kernel.t_b))
        monkeypatch.setattr(kernels, "_ENVELOPE_CELLS", rows * 16)
        got = kernel._envelope(omega)
        assert got.shape == omega.shape
        np.testing.assert_array_equal(got, want @ kernel.weights)

    def test_envelope_memory_is_linear_in_the_gaps(self):
        # d = 256 with 128 atoms: the whole gap x atom table was 257 MiB
        d, rng = 256, np.random.default_rng(4)
        rho = DensityMatrix(np.full((d, d), 1.0 / d))
        h = Hamiltonian(np.diag(np.linspace(0.0, 3.0, d)))
        kernel = TabulatedKernel(np.linspace(0, 5, 128), rng.uniform(0.1, 1, 128))
        tracemalloc.start()
        try:
            evolve_relational_dephasing(rho, h, kernel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


class TestEnvelope:
    """chi = phase x envelope; the envelope is the characteristic function
    of the watch error t - t_b."""

    @settings(max_examples=200, deadline=None)
    @given(kernel=KERNELS, omega=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=16))
    def test_conjugate_symmetric_unit_at_zero_and_bounded(self, kernel, omega):
        omega = np.array(omega)
        envelope = kernel._envelope(omega)
        mirrored = kernel._envelope(-omega)
        if kernel.kind == "tabulated":
            np.testing.assert_allclose(mirrored, envelope.conj(), rtol=0, atol=1e-15)
        else:
            np.testing.assert_array_equal(mirrored, np.conj(envelope))
        assert abs(kernel._envelope(np.zeros(1))[0] - 1.0) <= 1e-15
        assert np.all(np.abs(envelope) <= 1.0 + 1e-12)
