import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relatime import (
    DeltaKernel,
    DensityMatrix,
    DimensionMismatchError,
    GaussianKernel,
    Hamiltonian,
    NonPositiveLambdaError,
    NotHermitianError,
    QuadratureDriftError,
    QuadratureRule,
    QuantumStateError,
    TabulatedKernel,
    UniformKernel,
    coherence_report,
    evolve_pearle,
    evolve_relational_dephasing,
    evolve_relational_quadrature,
    evolve_unitary,
    make_gaussian_kernel,
    partial_trace,
    purity,
    tensor,
)
from relatime.evolution import (
    _finish_state,
    _kernel_multiplier,
    _rule_multiplier,
    _unitary_multiplier,
)
from conftest import (
    dense,
    hamiltonian_from_eigensystem,
    plus_density,
    random_density,
    random_hamiltonian,
    random_pure_density,
)

QUBIT_GAP = Hamiltonian(np.diag([0.0, 1.0]))


def kernel_zoo():
    return [
        DeltaKernel(1.7),
        make_gaussian_kernel(0.1, 2.0),
        UniformKernel(0.9, 1.2),
        TabulatedKernel([0.0, 0.7, 1.9], [1.0, 2.0, 1.0]),
    ]


class TestMultipliers:
    """Every engine scales the energy-basis state by one of these matrices."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6))
    def test_hermitian_unit_diagonal_and_bounded(self, seed, dim):
        rng = np.random.default_rng(seed)
        spectrum = random_hamiltonian(rng, dim, scale=3.0).spectrum
        multipliers = [_unitary_multiplier(spectrum, float(rng.uniform(-5, 5)))]
        for kernel in kernel_zoo():
            multipliers.append(_kernel_multiplier(spectrum, kernel))
            multipliers.append(_rule_multiplier(spectrum, kernel.quadrature(64)))
        for m in multipliers:
            assert np.max(np.abs(m - m.conj().T)) <= 1e-13
            np.testing.assert_allclose(np.diag(m), 1.0, rtol=0, atol=1e-12)
            assert np.max(np.abs(m)) <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 6))
    def test_quadrature_matches_closed_form_at_resolved_gaps(self, seed, dim):
        # Spectral radius 1 keeps |gap| * sigma <= 3.5 for the Gaussian, which
        # 64 Gauss-Hermite nodes resolve; delta and table rules are exact.
        rng = np.random.default_rng(seed)
        spectrum = random_hamiltonian(rng, dim).spectrum
        gaussian = make_gaussian_kernel(
            float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.5, 3.0))
        )
        for kernel in (gaussian, DeltaKernel(1.7), kernel_zoo()[3]):
            closed = _kernel_multiplier(spectrum, kernel)
            quad = _rule_multiplier(spectrum, kernel.quadrature(64))
            assert np.max(np.abs(quad - closed)) <= 1e-9


class TestUnitary:
    def test_zero_time_is_identity(self, rng):
        rho = random_density(rng, 4)
        out = evolve_unitary(rho, random_hamiltonian(rng, 4), 0.0)
        assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_pi_gap_flips_coherence_sign(self):
        h = Hamiltonian(np.diag([0.0, np.pi]))
        out = evolve_unitary(plus_density(), h, 1.0)
        want = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.max(np.abs(out.matrix - want)) <= 1e-12

    def test_purity_preserved(self, rng):
        rho = random_density(rng, 5)
        out = evolve_unitary(rho, random_hamiltonian(rng, 5), 2.3)
        assert purity(out) == pytest.approx(purity(rho), abs=1e-10)

    @pytest.mark.parametrize("dim", [2, 7, 16])
    def test_trace_and_spectrum_preserved(self, rng, dim):
        rho = random_density(rng, dim)
        out = evolve_unitary(rho, random_hamiltonian(rng, dim), -1.4)
        assert abs(np.trace(out.matrix) - 1.0) <= 1e-9
        before = np.linalg.eigvalsh(rho.matrix)
        after = np.linalg.eigvalsh(out.matrix)
        assert np.max(np.abs(before - after)) <= 1e-9

    def test_group_property_round_trip(self, rng):
        rho = random_density(rng, 3)
        h = random_hamiltonian(rng, 3)
        forward = evolve_unitary(rho, h, 1.9)
        back = evolve_unitary(forward, h, -1.9)
        assert np.max(np.abs(back.matrix - rho.matrix)) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            evolve_unitary(random_density(rng, 2), random_hamiltonian(rng, 3), 1.0)


class TestRelationalQuadrature:
    def test_delta_kernel_reduces_to_unitary(self, rng):
        for dim in (2, 5, 8):
            rho = random_density(rng, dim)
            h = random_hamiltonian(rng, dim)
            t_b = float(rng.uniform(0.2, 4.0))
            exact = evolve_unitary(rho, h, t_b)
            averaged = evolve_relational_quadrature(rho, h, DeltaKernel(t_b), 16)
            assert np.max(np.abs(averaged.matrix - exact.matrix)) <= 1e-12

    def test_energy_diagonal_state_is_immune(self, rng):
        h = random_hamiltonian(rng, 4)
        populations = np.array([0.4, 0.3, 0.2, 0.1])
        rho = DensityMatrix(
            (h.eigenbasis * populations) @ h.eigenbasis.conj().T
        )
        for kernel in kernel_zoo():
            out = evolve_relational_quadrature(rho, h, kernel, 48)
            assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-10

    def test_qubit_gaussian_offdiagonal_magnitude(self):
        kernel = make_gaussian_kernel(0.1, 2.0)
        out = evolve_relational_quadrature(plus_density(), QUBIT_GAP, kernel, 64)
        assert abs(out.matrix[0, 1]) == pytest.approx(
            0.5 * np.exp(-0.1), abs=1e-9
        )

    def test_purity_never_increases(self, rng):
        for kernel in kernel_zoo():
            rho = random_pure_density(rng, 3)
            h = random_hamiltonian(rng, 3)
            out = evolve_relational_quadrature(rho, h, kernel, 64)
            assert purity(out) <= purity(rho) + 1e-9

    def test_trace_drift_fails_loudly(self, rng):
        bad_rule = object.__new__(QuadratureRule)
        object.__setattr__(bad_rule, "nodes", np.array([0.5]))
        object.__setattr__(bad_rule, "weights", np.array([0.9]))

        class LeakyKernel(DeltaKernel):
            def quadrature(self, node_count):
                return bad_rule

        with pytest.raises(QuadratureDriftError, match="drifted"):
            evolve_relational_quadrature(
                random_density(rng, 2), QUBIT_GAP, LeakyKernel(0.5), 4
            )


def test_finish_state_checks_hermiticity_before_symmetrizing(rng):
    # symmetrizing first would leave the state check nothing to see
    raw = random_density(rng, 3).matrix + np.triu(np.full((3, 3), 1e-4), 1)
    with pytest.raises(NotHermitianError, match="engine output") as caught:
        _finish_state(raw)
    assert caught.value.violation == pytest.approx(1e-4)
    _finish_state(raw - np.triu(np.full((3, 3), 1e-4 - 1e-11), 1))  # inside budget


class TestRelationalDephasing:
    def test_matches_quadrature_on_random_instances(self, rng):
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            h = random_hamiltonian(rng, dim)
            kernel = make_gaussian_kernel(
                float(rng.uniform(0.05, 0.5)), float(rng.uniform(0.5, 3.0))
            )
            quad = evolve_relational_quadrature(rho, h, kernel, 64)
            closed = evolve_relational_dephasing(rho, h, kernel)
            assert np.max(np.abs(quad.matrix - closed.matrix)) <= 1e-8

    def test_kernel_not_one_at_gap_zero_is_refused(self, rng):
        # chi(0) = 1.001 scales every population: the closed form meets the
        # quadrature engines' trace-drift budget, not a silent renormalization
        class HeavyKernel(GaussianKernel):
            def _envelope(self, omega):
                return 1.001 * super()._envelope(omega)

        rho, h = random_density(rng, 3), random_hamiltonian(rng, 3)
        with pytest.raises(QuadratureDriftError, match="trace drifted to 1.001 "):
            evolve_relational_dephasing(rho, h, HeavyKernel(0.2, 1.0))
        evolve_relational_dephasing(rho, h, GaussianKernel(0.2, 1.0))

    def test_tabulated_dephasing_equals_its_quadrature(self, rng):
        rho = random_density(rng, 3)
        h = random_hamiltonian(rng, 3)
        kernel = TabulatedKernel([0.0, 1.1, 2.2], [1.0, 1.0, 2.0])
        quad = evolve_relational_quadrature(rho, h, kernel, 3)
        closed = evolve_relational_dephasing(rho, h, kernel)
        assert np.max(np.abs(quad.matrix - closed.matrix)) <= 1e-12

    def test_gaussian_law_magnitude_and_phase(self):
        lam, t_b = 0.1, 2.0
        out = evolve_relational_dephasing(
            plus_density(), QUBIT_GAP, make_gaussian_kernel(lam, t_b)
        )
        # element (0, 1) keeps the unitary phase exp(i (E_1 - E_0) t_B)
        # and shrinks by exp(-lam t_B gap^2 / 2)
        want = 0.5 * np.exp(-lam * t_b / 2.0) * np.exp(1j * t_b)
        assert abs(out.matrix[0, 1] - want) <= 1e-12

    def test_equal_energy_elements_preserved(self):
        h = Hamiltonian(np.diag([0.0, 1.0, 1.0]))
        rho = DensityMatrix(np.full((3, 3), 1 / 3))
        out = evolve_relational_dephasing(
            rho, h, make_gaussian_kernel(2.0, 5.0)
        )
        basis = h.eigenbasis
        before = basis.conj().T @ rho.matrix @ basis
        after = basis.conj().T @ out.matrix @ basis
        # the (1, 2) element lives inside the degenerate subspace
        assert abs(abs(after[1, 2]) - abs(before[1, 2])) <= 1e-9

    def test_fully_degenerate_hamiltonian_is_identity_map(self, rng):
        h = Hamiltonian(np.eye(3) * 0.7)
        rho = random_density(rng, 3)
        for kernel in kernel_zoo():
            out = evolve_relational_dephasing(rho, h, kernel)
            assert np.max(np.abs(out.matrix - rho.matrix)) <= 1e-12

    def test_invariant_under_degenerate_basis_choice(self, rng):
        theta = 0.7
        rot = np.array(
            [
                [1, 0, 0],
                [0, np.cos(theta), np.sin(theta) * np.exp(0.3j)],
                [0, -np.sin(theta) * np.exp(-0.3j), np.cos(theta)],
            ]
        )
        energies = [0.0, 1.0, 1.0]
        h_plain = hamiltonian_from_eigensystem(energies, np.eye(3))
        h_rotated = hamiltonian_from_eigensystem(energies, rot)
        assert np.max(np.abs(dense(h_plain) - dense(h_rotated))) <= 1e-12
        rho = random_density(rng, 3)
        kernel = make_gaussian_kernel(0.3, 1.5)
        out_plain = evolve_relational_dephasing(rho, h_plain, kernel)
        out_rot = evolve_relational_dephasing(rho, h_rotated, kernel)
        assert np.max(np.abs(out_plain.matrix - out_rot.matrix)) <= 1e-10

    def test_diagonal_entries_independent_of_reading(self, rng):
        rho = random_density(rng, 4)
        h = random_hamiltonian(rng, 4)
        basis = h.eigenbasis
        reference = np.diag(basis.conj().T @ rho.matrix @ basis).real
        for t_b in (0.5, 1.0, 2.0, 5.0):
            out = evolve_relational_dephasing(
                rho, h, make_gaussian_kernel(0.4, t_b)
            )
            diag = np.diag(basis.conj().T @ out.matrix @ basis).real
            assert np.max(np.abs(diag - reference)) <= 1e-9


class TestPearle:
    def test_zero_time_returns_input(self, rng):
        rho = random_density(rng, 3)
        out = evolve_pearle(rho, random_hamiltonian(rng, 3), 0.2, 0.0, 64)
        assert out is rho

    def test_matches_gaussian_relational_state(self, rng):
        for _ in range(8):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            h = random_hamiltonian(rng, dim)
            lam = float(rng.uniform(0.05, 0.5))
            t = float(rng.uniform(0.1, 3.0))
            collapsed = evolve_pearle(rho, h, lam, t, 64)
            relational = evolve_relational_dephasing(
                rho, h, make_gaussian_kernel(lam, t)
            )
            assert np.max(np.abs(collapsed.matrix - relational.matrix)) <= 1e-8

    def test_populations_constant_in_time(self):
        h = Hamiltonian(np.diag([0.0, 1.3]))
        rho = plus_density()
        for t in (0.5, 2.0, 7.0):
            out = evolve_pearle(rho, h, 0.2, t, 64)
            np.testing.assert_allclose(np.diag(out.matrix).real, [0.5, 0.5], atol=1e-10)

    def test_rejects_nonpositive_lambda(self, rng):
        with pytest.raises(NonPositiveLambdaError):
            evolve_pearle(random_density(rng, 2), QUBIT_GAP, 0.0, 1.0, 32)

    def test_rejects_negative_time(self, rng):
        with pytest.raises(ValueError):
            evolve_pearle(random_density(rng, 2), QUBIT_GAP, 0.1, -1.0, 32)

    @pytest.mark.parametrize("nodes", [0, -3])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_rejects_a_node_count_below_one(self, rng, nodes, t):
        with pytest.raises(QuantumStateError, match="collapse engine needs --nodes >= 1"):
            evolve_pearle(random_density(rng, 2), QUBIT_GAP, 0.1, t, nodes)


class TestProductSystems:
    def _composite(self, rng):
        h_s = Hamiltonian(np.diag([0.0, 1.0]))
        h_c = Hamiltonian(np.diag([0.0, 1.618]))
        rho_s = plus_density()
        rho_c = plus_density()
        h_q = Hamiltonian(
            tensor(dense(h_s), np.eye(2)) + tensor(np.eye(2), dense(h_c))
        )
        rho_q = DensityMatrix(tensor(rho_s, rho_c))
        return h_s, h_c, h_q, rho_s, rho_c, rho_q

    def test_unitary_evolution_factorizes(self, rng):
        h_s, h_c, h_q, rho_s, rho_c, rho_q = self._composite(rng)
        t = 1.3
        joint = evolve_unitary(rho_q, h_q, t)
        separate = tensor(
            evolve_unitary(rho_s, h_s, t),
            evolve_unitary(rho_c, h_c, t),
        )
        assert np.max(np.abs(joint.matrix - separate)) <= 1e-9

    def test_relational_evolution_builds_correlations(self, rng):
        # witness: |+><+| x |+><+| with incommensurate gaps and a watch
        # broad enough to decohere partially
        _, _, h_q, _, _, rho_q = self._composite(rng)
        kernel = make_gaussian_kernel(0.5, 1.0)
        joint = evolve_relational_dephasing(rho_q, h_q, kernel)
        marginal_s = partial_trace(joint, (2, 2), keep="S")
        marginal_c = partial_trace(joint, (2, 2), keep="C")
        product = tensor(marginal_s, marginal_c)
        assert np.max(np.abs(joint.matrix - product)) > 1e-3

    def test_subsystem_consistency_both_routes(self, rng):
        # averaging the subsystem alone == tracing the averaged composite
        for _ in range(5):
            d_s, d_c = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            h_s = random_hamiltonian(rng, d_s)
            h_c = random_hamiltonian(rng, d_c)
            rho_s = random_density(rng, d_s)
            rho_c = random_density(rng, d_c)
            h_q = Hamiltonian(
                tensor(dense(h_s), np.eye(d_c)) + tensor(np.eye(d_s), dense(h_c))
            )
            rho_q = DensityMatrix(tensor(rho_s, rho_c))
            kernel = make_gaussian_kernel(0.3, 1.2)

            direct = evolve_relational_dephasing(rho_s, h_s, kernel)
            traced = partial_trace(
                evolve_relational_dephasing(rho_q, h_q, kernel),
                (d_s, d_c),
                keep="S",
            )
            assert np.max(np.abs(direct.matrix - traced.matrix)) <= 1e-9

            direct_q = evolve_relational_quadrature(rho_s, h_s, kernel, 48)
            traced_q = partial_trace(
                evolve_relational_quadrature(rho_q, h_q, kernel, 48),
                (d_s, d_c),
                keep="S",
            )
            assert np.max(np.abs(direct_q.matrix - traced_q.matrix)) <= 1e-9


class TestCoherenceReport:
    def test_delta_kernel_preserves_every_pair(self, rng):
        rho = random_density(rng, 4)
        h = random_hamiltonian(rng, 4)
        report = coherence_report(rho, h, DeltaKernel(2.5))
        np.testing.assert_allclose(
            report.magnitude_averaged, report.magnitude_exact, rtol=0, atol=1e-12
        )

    def test_broad_kernel_flags_complete_decoherence(self):
        h = Hamiltonian(np.diag([0.0, 1.0, 2.3]))
        rho = DensityMatrix(np.full((3, 3), 1 / 3))
        report = coherence_report(rho, h, make_gaussian_kernel(5.0, 10.0))
        assert report.complete_decoherence
        assert report.max_offdiag_averaged < 1e-9

    def test_narrow_kernel_does_not_flag(self):
        report = coherence_report(
            plus_density(), QUBIT_GAP, make_gaussian_kernel(0.1, 1.0)
        )
        assert not report.complete_decoherence
        assert report.max_offdiag_averaged == pytest.approx(
            0.5 * np.exp(-0.05), abs=1e-12
        )

    def test_degenerate_hamiltonian_is_vacuously_complete(self, rng):
        h = Hamiltonian(np.eye(3))
        report = coherence_report(
            random_density(rng, 3), h, make_gaussian_kernel(1.0, 1.0)
        )
        assert report.complete_decoherence
        assert report.max_offdiag_averaged == 0.0
        assert len(report.magnitude_averaged) == 3

    def test_monotonicity_invariants(self, rng):
        for _ in range(5):
            rho = random_density(rng, 5)
            h = random_hamiltonian(rng, 5)
            kernel = make_gaussian_kernel(
                float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.5, 4.0))
            )
            report = coherence_report(rho, h, kernel)
            assert np.all(report.magnitude_averaged <= report.magnitude_exact + 1e-9)

    def test_threshold_is_configurable(self):
        report = coherence_report(
            plus_density(), QUBIT_GAP, make_gaussian_kernel(0.1, 1.0), threshold=0.9
        )
        assert report.complete_decoherence
        assert report.threshold == 0.9
