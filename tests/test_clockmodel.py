import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relatime import (
    ClockSystem,
    ConsistencyError,
    CompositeScenario,
    DeltaKernel,
    DensityMatrix,
    DimensionMismatchError,
    DimensionOverflowError,
    Hamiltonian,
    InvalidDimensionError,
    KernelOffGridError,
    NotPointerTimeError,
    NotHermitianError,
    NotPositiveError,
    Observable,
    TabulatedKernel,
    UniformKernel,
    ZeroProbabilityError,
    alice_conditional,
    bob_conditional,
    bob_state,
    discretize_on_grid,
    evolve_relational_dephasing,
    evolve_relational_quadrature,
    evolve_unitary,
    expectation,
    make_gaussian_kernel,
    parse_scenario,
    pointer_weights,
    run_clock_recovery,
    unconditioned_expectation,
)
from relatime import clockmodel, evolution, scenario as scenario_module
from conftest import (
    SCENARIO_DIR,
    dense,
    hamiltonian_from_eigensystem,
    plus_density,
    random_density,
    random_hamiltonian,
    random_hermitian,
)

PAULI_X = Observable([[0, 1], [1, 0]])


def expm_series(matrix):
    """Scaling-and-squaring Taylor exponential, independent of the library."""
    m = np.asarray(matrix, dtype=complex)
    norm = np.linalg.norm(m, 1)
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    x = m / (2**squarings)
    term = np.eye(len(m), dtype=complex)
    acc = np.eye(len(m), dtype=complex)
    for k in range(1, 30):
        term = term @ x / k
        acc = acc + term
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def dense_clock(clock):
    """The clock's generator F diag(omega) F^dag, with the DFT written here."""
    m = np.arange(clock.dim)
    fourier = np.exp(2j * np.pi * np.outer(m, m) / clock.dim) / np.sqrt(clock.dim)
    return hamiltonian_from_eigensystem(clock.frequencies, fourier)


def no_kron(*args):
    """Stands in for np.kron where no D x D product may be formed."""
    raise AssertionError("np.kron called")


def precession_scenario(omega=1.0, dim=8, tick=0.4, state=None):
    """Qubit with gap omega, |+> start: <pauli_x>(t) = cos(omega t). A ``state``
    matrix replaces |+> unvalidated, so that readout's own check meets it."""
    h_s = Hamiltonian(np.diag([0.0, omega]))
    rho_s = plus_density()
    if state is not None:
        rho_s = object.__new__(DensityMatrix)
        object.__setattr__(rho_s, "dim", len(state))
        object.__setattr__(rho_s, "matrix", state)
    return CompositeScenario(h_s, rho_s, ClockSystem(dim, tick))


class TestIdealClock:
    def test_one_tick_swaps_two_pointer_states(self):
        clock = ClockSystem(2, 1.0)
        step = expm_series(-1j * dense(dense_clock(clock)) * 1.0)
        assert abs(step[1, 0]) == pytest.approx(1.0, abs=1e-10)
        assert abs(step[0, 0]) <= 1e-10

    @pytest.mark.parametrize("dim,tick", [(2, 1.0), (5, 0.3), (8, 0.5)])
    def test_full_cycle_returns_to_start(self, dim, tick):
        clock = ClockSystem(dim, tick)
        cycle = expm_series(-1j * dense(dense_clock(clock)) * dim * tick)
        # frequencies are integer multiples of 2 pi / period, so the global
        # phase after one period is exactly 1
        assert np.max(np.abs(cycle - np.eye(dim))) <= 1e-8

    def test_shift_property_every_pointer_state(self):
        clock = ClockSystem(6, 0.7)
        step = expm_series(-1j * dense(dense_clock(clock)) * 0.7)
        for m in range(6):
            ket = np.zeros(6)
            ket[m] = 1.0
            want = np.zeros(6)
            want[(m + 1) % 6] = 1.0
            assert np.linalg.norm(step @ ket - want) <= 1e-8

    def test_invalid_dimension(self):
        with pytest.raises(InvalidDimensionError):
            ClockSystem(1, 1.0)
        with pytest.raises(InvalidDimensionError):
            ClockSystem(2.5, 1.0)
        with pytest.raises(InvalidDimensionError):
            ClockSystem(4, 0.0)

    def test_pointer_index_rejects_off_grid_and_wrapped_times(self):
        clock = ClockSystem(4, 0.5)
        assert clock.period == pytest.approx(2.0)
        assert clock.pointer_index(1.5) == 3
        with pytest.raises(NotPointerTimeError):
            clock.pointer_index(0.3)
        with pytest.raises(NotPointerTimeError):
            clock.pointer_index(2.0)  # one full period, aliases to 0
        for t in (-0.5, np.nan, np.inf, -np.inf, 1e300):
            with pytest.raises(NotPointerTimeError):
                clock.pointer_index(t)

    def test_pointer_tolerance_is_relative_to_the_tick(self):
        clock = ClockSystem(8, 1e-6)
        assert clock.pointer_index(2e-6) == 2
        with pytest.raises(NotPointerTimeError):
            clock.pointer_index(2e-6 + 5e-10)  # 5e-4 ticks off the grid
        clock = ClockSystem(8, 0.4)
        assert 3 * 0.4 != 1.2
        assert clock.pointer_index(1.2) == clock.pointer_index(3 * 0.4) == 3

    def test_construction_forms_nothing_d_by_d(self):
        tracemalloc.start()
        try:
            clock = ClockSystem(1024, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # one 1024 x 1024 complex array is 16 MiB
        np.testing.assert_allclose(
            clock.frequencies, 2 * np.pi * np.arange(1024) / 1.024, rtol=1e-15
        )
        for values in (clock.pointer_times, clock.frequencies):
            assert not values.flags.writeable

    def test_clock_ideality_fidelity_on_grid(self):
        clock = ClockSystem(8, 0.4)
        start = np.zeros((8, 8))
        start[0, 0] = 1.0
        rho = DensityMatrix(start)
        for m in range(8):
            evolved = evolve_unitary(rho, dense_clock(clock), m * 0.4)
            fidelity = float(evolved.matrix[m, m].real)
            assert fidelity >= 1.0 - 1e-8


class TestCompositeScenario:
    def test_shapes_and_product_start(self):
        scenario = precession_scenario()
        assert scenario.dims == (2, 8)
        assert scenario.hamiltonian.dim == 16
        assert scenario.initial_state.dim == 16
        # with the clock on pointer 0, the system factor sits at stride d_C
        block = scenario.initial_state.matrix[::8, ::8]
        np.testing.assert_allclose(block, plus_density().matrix, atol=1e-12)

    def test_dimension_mismatch(self):
        h = Hamiltonian(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(DimensionMismatchError):
            CompositeScenario(h, plus_density(), ClockSystem(4, 0.5))

    def test_immutable(self):
        scenario = precession_scenario()
        for value, name in ((scenario.clock, "ClockSystem"),
                            (scenario, "CompositeScenario")):
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                value.dims = (1, 1)

    def test_dimension_cap_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(np, "kron", no_kron)
        clock = ClockSystem(64, 0.1)
        h = Hamiltonian(np.diag(np.arange(65.0)))
        with pytest.raises(DimensionOverflowError, match="4160 exceeds cap 4096"):
            CompositeScenario(h, DensityMatrix(np.eye(65) / 65), clock)
        h = Hamiltonian(np.diag(np.arange(64.0)))
        assert CompositeScenario(h, DensityMatrix(np.eye(64) / 64), clock).dims == (
            64, 64
        )


class TestAliceConditional:
    def test_identity_observable_gives_one(self):
        scenario = precession_scenario()
        for m in (0, 3, 7):
            value = alice_conditional(scenario, Observable(np.eye(2)), m * 0.4)
            assert value == pytest.approx(1.0, abs=1e-10)

    def test_static_system_is_time_independent(self):
        h_s = Hamiltonian(np.zeros((2, 2)))
        scenario = CompositeScenario(h_s, plus_density(), ClockSystem(6, 0.5))
        values = [
            alice_conditional(scenario, PAULI_X, m * 0.5) for m in range(6)
        ]
        assert np.ptp(values) <= 1e-10

    def test_qubit_precession_oracle(self):
        omega = 1.3
        scenario = precession_scenario(omega=omega)
        for m in range(8):
            t = m * 0.4
            value = alice_conditional(scenario, PAULI_X, t)
            assert value == pytest.approx(np.cos(omega * t), abs=1e-9)

    def test_rejects_off_grid_time(self):
        scenario = precession_scenario()
        with pytest.raises(NotPointerTimeError):
            alice_conditional(scenario, PAULI_X, 0.123)

    def test_rejects_wrong_observable_dimension(self):
        scenario = precession_scenario()
        with pytest.raises(DimensionMismatchError):
            alice_conditional(scenario, Observable(np.eye(3)), 0.4)


class TestBobConditional:
    def test_delta_kernel_single_branch(self):
        scenario = precession_scenario()
        t = 3 * 0.4
        got = bob_conditional(scenario, DeltaKernel(t), PAULI_X, t)
        want = alice_conditional(scenario, PAULI_X, t)
        assert got == pytest.approx(want, abs=1e-12)

    def test_uniform_weights_recover_alice_everywhere(self):
        scenario = precession_scenario()
        clock = scenario.clock
        kernel = TabulatedKernel(clock.pointer_times, np.ones(clock.dim))
        for m in range(clock.dim):
            t = m * 0.4
            got = bob_conditional(scenario, kernel, PAULI_X, t)
            want = alice_conditional(scenario, PAULI_X, t)
            assert abs(got - want) <= 1e-8

    def test_random_on_grid_kernels_recover_alice(self, rng):
        for dim_s in (2, 3):
            for d in (4, 8):
                clock = ClockSystem(d, 0.3)
                scenario = CompositeScenario(
                    random_hamiltonian(rng, dim_s, scale=1.5),
                    random_density(rng, dim_s),
                    clock,
                )
                n = Observable(
                    np.diag(rng.uniform(-1, 1, size=dim_s)).astype(complex)
                )
                weights = rng.uniform(0, 1, size=d)
                weights[rng.integers(0, d)] = 0.0
                if weights.sum() == 0:
                    weights[0] = 1.0
                kernel = TabulatedKernel(clock.pointer_times, weights)
                for m in range(d):
                    t = float(clock.pointer_times[m])
                    if weights[m] == 0.0:
                        with pytest.raises(ZeroProbabilityError):
                            bob_conditional(scenario, kernel, n, t)
                        continue
                    got = bob_conditional(scenario, kernel, n, t)
                    want = alice_conditional(scenario, n, t)
                    assert abs(got - want) <= 1e-8

    def test_excluded_reading_raises(self):
        scenario = precession_scenario()
        clock = scenario.clock
        weights = np.ones(clock.dim)
        weights[2] = 0.0
        kernel = TabulatedKernel(clock.pointer_times, weights)
        with pytest.raises(ZeroProbabilityError):
            bob_conditional(scenario, kernel, PAULI_X, 2 * 0.4)

    def test_continuous_kernel_rejected(self):
        scenario = precession_scenario()
        with pytest.raises(KernelOffGridError):
            bob_conditional(scenario, make_gaussian_kernel(0.1, 1.0), PAULI_X, 0.4)

    def test_off_grid_table_rejected(self):
        scenario = precession_scenario()
        kernel = TabulatedKernel([0.0, 0.55], [1.0, 1.0])
        with pytest.raises(KernelOffGridError):
            bob_conditional(scenario, kernel, PAULI_X, 0.0)

    def test_averaged_state_matches_composite_engine(self, rng):
        # mixture construction == kernel-averaging the composite system
        scenario = precession_scenario()
        clock = scenario.clock
        weights = rng.uniform(0.1, 1.0, size=clock.dim)
        kernel = TabulatedKernel(clock.pointer_times, weights)
        mixture = bob_state(scenario, kernel)
        engine = evolve_relational_quadrature(
            scenario.initial_state, scenario.hamiltonian, kernel, clock.dim
        )
        assert np.max(np.abs(mixture.matrix - engine.matrix)) <= 1e-10

    def test_invalid_averaged_state_rejected(self):
        # a system state with trace 1 but a negative eigenvalue makes branches
        # that are not states; conditioning must not read them
        scenario = precession_scenario(state=plus_density().matrix + np.diag([2.0, -2.0]))
        kernel = TabulatedKernel(scenario.clock.pointer_times, np.ones(8))
        with pytest.raises(NotPositiveError):
            bob_conditional(scenario, kernel, PAULI_X, 0.4)

    def test_non_hermitian_averaged_state_rejected(self):
        # the energy-basis state is symmetrized before it is validated, so the
        # defect must be read off it first
        skew = np.array([[0.0, 1e-4], [0.0, 0.0]])
        scenario = precession_scenario(state=plus_density().matrix + skew)
        kernel = TabulatedKernel(scenario.clock.pointer_times, np.ones(8))
        with pytest.raises(NotHermitianError, match="energy-basis state"):
            bob_conditional(scenario, kernel, PAULI_X, 0.4)


def dense_readout(scenario, observable, weights):
    """Alice and bob values per pointer time by the dense D x D route.

    Diagonalizes the Kronecker sum H_S (x) I + I (x) H_C, evolves the
    product start state, mixes the evolved states with ``weights`` and
    conditions with I (x) |r><r|. Bob's value is None where the weight is 0.
    """
    d_s, d_c = scenario.dims
    eye_s, eye_c = np.eye(d_s), np.eye(d_c)
    h = np.kron(dense(scenario.system_hamiltonian), eye_c) + np.kron(
        eye_s, dense(dense_clock(scenario.clock))
    )
    energies, basis = np.linalg.eigh(h)
    rho0 = np.kron(scenario.system_state.matrix, scenario.clock.projector(0))
    n_hat = np.kron(observable.matrix, eye_c)

    def evolved(t):
        u = (basis * np.exp(-1j * energies * t)) @ basis.conj().T
        return u @ rho0 @ u.conj().T

    def condition(rho, reading):
        proj = np.kron(eye_s, scenario.clock.projector(reading))
        return (
            np.trace(n_hat @ proj @ rho).real / np.trace(proj @ rho).real
        )

    states = [evolved(t) for t in scenario.clock.pointer_times]
    mixture = sum(w * rho for w, rho in zip(weights, states)) / np.sum(weights)
    alice = [condition(rho, r) for r, rho in enumerate(states)]
    bob = [condition(mixture, r) if w > 0 else None for r, w in enumerate(weights)]
    return alice, bob


@settings(max_examples=40, deadline=None)
@given(
    d_s=st.integers(1, 4),
    d_c=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_bob_equals_alice_on_random_clocks_and_kernels(d_s, d_c, seed, data):
    rng = np.random.default_rng(seed)
    tick = data.draw(st.floats(0.05, 1.0), label="tick")
    weights = np.array(
        data.draw(
            st.lists(
                st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
                min_size=d_c,
                max_size=d_c,
            ).filter(any),
            label="weights",
        )
    )
    clock = ClockSystem(d_c, tick)
    scenario = CompositeScenario(
        random_hamiltonian(rng, d_s, scale=2.0),
        random_density(rng, d_s),
        clock,
    )
    n = Observable(random_hermitian(rng, d_s))
    kernel = TabulatedKernel(clock.pointer_times, weights)
    want_alice, want_bob = dense_readout(scenario, n, weights)
    for m, t in enumerate(clock.pointer_times):
        alice = alice_conditional(scenario, n, t)
        assert abs(alice - want_alice[m]) <= 1e-10
        if weights[m] == 0.0:
            with pytest.raises(ZeroProbabilityError):
                bob_conditional(scenario, kernel, n, t)
            continue
        bob = bob_conditional(scenario, kernel, n, t)
        assert abs(bob - want_bob[m]) <= 1e-10
        assert abs(bob - alice) <= 1e-8


def test_alice_cross_check_fires_on_wrong_phases(monkeypatch):
    # pauli_y precesses as sin t, odd in t, so time-reversed (conjugated)
    # system phases move the direct value but not the composite one
    text = (SCENARIO_DIR / "clock_recovery.scn").read_text().replace(
        "preset pauli_x", "matrix {\n    row 0 0 0 -1\n    row 0 1 0 0\n  }"
    )
    scn = parse_scenario(text)
    original = clockmodel._phases
    monkeypatch.setattr(
        clockmodel, "_phases", lambda spectrum, t: original(spectrum, t).conj()
    )
    with pytest.raises(ConsistencyError, match="^at readout t = 0.4: direct"):
        run_clock_recovery(scn)


def pointer_table_readout(dim: int) -> str:
    """``clock_recovery.scn`` on a ``dim``-state clock, read at every pointer."""
    text = (SCENARIO_DIR / "clock_recovery.scn").read_text()
    start, stop = text.index("  table {"), text.index("clock {")
    table = "".join(f"    {m * 0.1!r} {m + 1}\n" for m in range(dim))
    text = text[:start] + "  table {\n" + table + "  }\n}\n" + text[stop:]
    return text.replace("dimension 8\n  tick 0.4", f"dimension {dim}\n  tick 0.1")


@pytest.mark.parametrize("dim", [8, 32])
def test_readout_changes_basis_twice_per_run(dim, monkeypatch):
    # the state and the observable go into H_S's eigenbasis once per run, in
    # evolution._energy_frame, and every value is read there: nothing rotates back
    calls = {"_to_eigenbasis": 0, "_from_eigenbasis": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(evolution, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (clockmodel, scenario_module, evolution):
            if hasattr(module, name):  # patched only where it is imported
                monkeypatch.setattr(module, name, counted)
    result = run_clock_recovery(parse_scenario(pointer_table_readout(dim)))
    assert len(result.columns["t"]) == dim
    assert calls == {"_to_eigenbasis": 2, "_from_eigenbasis": 0}


@pytest.mark.parametrize("wrong", [
    lambda freqs: freqs * 1.001,
    lambda freqs: -freqs,
    lambda freqs: freqs / (2 * np.pi),
], ids=["scaled", "sign-flipped", "no-2pi"])
def test_readout_checks_the_clock_it_reads(wrong):
    # Alice's composite route divides the clock's factor out, so her value
    # does not see a wrong clock: the probability that the clock shows
    # reading m at t_m is what must be 1, and it is checked before Bob's
    # value, which does see it, is read at the same readout
    scn = parse_scenario((SCENARIO_DIR / "clock_recovery.scn").read_text())
    object.__setattr__(scn.clock, "frequencies", wrong(scn.clock.frequencies))
    with pytest.raises(ConsistencyError, match="^at readout t = 0.4: "):
        run_clock_recovery(scn)


def recovery_composite(wrong=lambda freqs: freqs):
    """``clock_recovery.scn`` as a composite, with ``wrong`` applied to its
    clock's frequencies, its kernel and its observable."""
    scn = parse_scenario((SCENARIO_DIR / "clock_recovery.scn").read_text())
    object.__setattr__(scn.clock, "frequencies", wrong(scn.clock.frequencies))
    composite = CompositeScenario(scn.system_hamiltonian, scn.initial_state, scn.clock)
    return composite, scn.kernel_spec.build(), scn.observable


@pytest.mark.parametrize("wrong, least", [
    (lambda freqs: freqs * 1.001, 1e-4),
    (lambda freqs: -freqs, 1.0),
    (lambda freqs: freqs / (2 * np.pi), 1.0),
], ids=["scaled", "sign-flipped", "no-2pi"])
def test_bob_sees_a_wrong_clock(wrong, least):
    # Bob conditions through the clock's own transition probabilities, so a
    # clock that does not show reading r at t_r mixes other branches in
    def values(composite, kernel, n):
        times = composite.clock.pointer_times
        return np.array([bob_conditional(composite, kernel, n, t) for t in times])

    moved = values(*recovery_composite(wrong)) - values(*recovery_composite())
    assert np.max(np.abs(moved)) > least


def test_bob_finds_a_sign_flipped_clock_at_the_reading_it_shows():
    # with its frequencies negated the clock runs backwards: at t = 0.4 it
    # shows reading 7, so reading 1 has no weight and reading 7 holds t = 0.4
    wrong, kernel, n = recovery_composite(lambda freqs: -freqs)
    with pytest.raises(ZeroProbabilityError, match="reading index 1 "):
        bob_conditional(wrong, DeltaKernel(0.4), n, 0.4)
    right, _, _ = recovery_composite()
    want = bob_conditional(right, DeltaKernel(0.4), n, 0.4)
    got = bob_conditional(wrong, DeltaKernel(0.4), n, 2.8)
    assert got == pytest.approx(want, abs=1e-12)


def traced_readout_peak(d_s, d_c, rng):
    """Tracemalloc peak of one readout at every pointer time of a d_c-state
    clock, for a dense d_s-level system, with the operands built outside."""
    clock = ClockSystem(d_c, 3.0 / d_c)
    composite = CompositeScenario(
        random_hamiltonian(rng, d_s, scale=2.0), random_density(rng, d_s), clock
    )
    kernel = TabulatedKernel(clock.pointer_times, np.ones(d_c))
    n = Observable(random_hermitian(rng, d_s))
    tracemalloc.start()
    try:
        values = clockmodel._read_clock(composite, kernel, n, np.arange(d_c))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(values[0] - values[1])) <= 1e-9
    return peak


def test_readout_memory_stays_a_few_system_matrices(rng):
    # no (d_C, d_S, d_S) stack: at most 6 d_S x d_S complex arrays (24 MiB)
    assert traced_readout_peak(512, 8, rng) <= 6 * 512**2 * 16


def test_readout_memory_is_linear_in_the_clock_dimension(rng):
    # thousands of supported times, one length-d_C transform each: no d_C^2
    assert traced_readout_peak(2, 2048, rng) < 2**20


def scaled_clock_recovery(s):
    """``clock_recovery.scn`` in a unit of time 1/s: the spectrum times s,
    the tick and every table time over s."""
    text = (SCENARIO_DIR / "clock_recovery.scn").read_text()
    text = text.replace("spectrum 0.0 1.0\n", f"spectrum 0.0 {s!r}\n")
    text = text.replace("tick 0.4\n", f"tick {0.4 / s!r}\n")
    text, rows = re.subn(
        r"^    (\S+) (\d+)$",
        lambda m: f"    {float(m[1]) / s!r} {m[2]}",
        text,
        flags=re.M,
    )
    assert rows == 8 and f"spectrum 0.0 {s!r}\n" in text and f"tick {0.4 / s!r}\n" in text
    return text


def recovery_columns(text):
    result = run_clock_recovery(parse_scenario(text))
    names = ("t", "alice_value", "bob_value", "abs_difference")
    return [np.asarray(result.columns[name]) for name in names]


@pytest.mark.parametrize("s", [1e-6, 1e-3, 1e3, 1e6, 1e7, 1e8])
def test_clock_readout_does_not_depend_on_the_unit_of_time(s):
    t, *values = recovery_columns(scaled_clock_recovery(s))
    want_t, *want = recovery_columns(scaled_clock_recovery(1.0))
    np.testing.assert_allclose(t * s, want_t, rtol=1e-12, atol=0)
    for got, expected in zip(values, want):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_a_finer_clock_reads_the_same_values():
    # d_C = 2048 at tick 0.4/256 (D = 4096, the cap) has every table time of
    # the 8-state clock on its grid, 256 pointers apart
    text = (SCENARIO_DIR / "clock_recovery.scn").read_text()
    fine = text.replace("dimension 8\n  tick 0.4\n", "dimension 2048\n  tick 0.0015625\n")
    assert fine != text and 0.0015625 == 0.4 / 256
    for got, want in zip(recovery_columns(fine), recovery_columns(text)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    d_s=st.integers(1, 4),
    d_c=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_watch_only_value_is_the_kernel_engines(d_s, d_c, seed, data):
    # the clock's watch-only answer and the closed-form kernel average are
    # two engines for Tr[N rho_B]
    rng = np.random.default_rng(seed)
    tick = data.draw(st.floats(0.05, 1.0), label="tick")
    weights = data.draw(
        st.lists(
            st.one_of(st.just(0.0), st.floats(0.01, 10.0)),
            min_size=d_c,
            max_size=d_c,
        ).filter(any),
        label="weights",
    )
    clock = ClockSystem(d_c, tick)
    h_s, rho_s = random_hamiltonian(rng, d_s, scale=2.0), random_density(rng, d_s)
    n = Observable(random_hermitian(rng, d_s))
    kernel = TabulatedKernel(clock.pointer_times, weights)
    got = unconditioned_expectation(CompositeScenario(h_s, rho_s, clock), kernel, n)
    want = expectation(n, evolve_relational_dephasing(rho_s, h_s, kernel))
    assert abs(got - want) <= 1e-10


def _matrix_lines(matrix):
    return [
        "    row " + " ".join(f"{z.real!r} {z.imag!r}" for z in row.tolist())
        for row in matrix
    ]


def test_recovery_at_the_dimension_cap_builds_no_composite(rng, monkeypatch):
    d_s = d_c = 64  # D = 4096, the cap
    tick = 3.0 / d_c
    h = random_hermitian(rng, d_s, scale=2.0)
    weights = rng.uniform(0.5, 1.5, d_c).tolist()
    table = [f"    {m * tick!r} {w!r}" for m, w in enumerate(weights)]
    text = "\n".join(
        [
            "system {",
            f"  dimension {d_s}",
            "  hamiltonian {",
            *_matrix_lines(h),
            "  }",
            "  state random_mixed",
            "}",
            "kernel {",
            "  kind tabulated",
            "  table {",
            *table,
            "  }",
            "}",
            "clock {",
            f"  dimension {d_c}",
            f"  tick {tick!r}",
            "}",
            "observable {",
            "  preset number_op",
            "}",
        ]
    )
    scn = parse_scenario(text)
    monkeypatch.setattr(np, "kron", no_kron)
    result = run_clock_recovery(scn)
    assert len(result.columns["t"]) == d_c
    assert float(result.footer["max_abs_difference"]) <= 1e-9


class TestCompleteDecoherenceStory:
    def broad_kernel(self, clock, center):
        sigma = 1e4 * clock.period
        weights = np.exp(-((clock.pointer_times - center) ** 2) / (2 * sigma**2))
        return TabulatedKernel(clock.pointer_times, weights)

    def test_unconditioned_value_is_flat_while_conditional_tracks(self):
        scenario = precession_scenario()
        clock = scenario.clock
        unconditioned = [
            unconditioned_expectation(
                scenario, self.broad_kernel(clock, c), PAULI_X
            )
            for c in (0.8, 1.2, 1.6, 2.0)
        ]
        assert np.ptp(unconditioned) < 1e-6

        alice_curve = [
            alice_conditional(scenario, PAULI_X, m * 0.4) for m in range(8)
        ]
        assert np.ptp(alice_curve) > 0.1

        kernel = self.broad_kernel(clock, 1.2)
        for m in range(8):
            t = m * 0.4
            got = bob_conditional(scenario, kernel, PAULI_X, t)
            assert got == pytest.approx(alice_curve[m], abs=1e-8)

    def test_correlation_witness(self):
        from relatime import partial_trace, tensor

        scenario = precession_scenario()
        kernel = self.broad_kernel(scenario.clock, 1.2)
        joint = bob_state(scenario, kernel)
        product = tensor(
            partial_trace(joint, scenario.dims, keep="S"),
            partial_trace(joint, scenario.dims, keep="C"),
        )
        assert np.max(np.abs(joint.matrix - product)) > 1e-3


class TestDiscretizeOnGrid:
    def test_gaussian_sampled_onto_grid(self):
        clock = ClockSystem(8, 0.4)
        kernel = make_gaussian_kernel(0.5, 1.2)
        snapped = discretize_on_grid(kernel, clock)
        np.testing.assert_allclose(snapped.times, clock.pointer_times)
        assert snapped.weights.sum() == pytest.approx(1.0)
        ratio = snapped.weights / kernel.pdf(clock.pointer_times)
        assert np.ptp(ratio) <= 1e-12 * ratio[0]

    def test_delta_passes_through(self):
        clock = ClockSystem(4, 0.5)
        snapped = discretize_on_grid(DeltaKernel(1.0), clock)
        np.testing.assert_allclose(snapped.weights, [0, 0, 1, 0])

    def test_zero_mass_kernel_rejected(self):
        clock = ClockSystem(4, 1.0)
        off_support = UniformKernel(0.1, 0.5)  # support misses every pointer
        with pytest.raises(KernelOffGridError):
            discretize_on_grid(off_support, clock)

    def test_pointer_weights_delta(self):
        clock = ClockSystem(4, 0.5)
        np.testing.assert_allclose(
            pointer_weights(DeltaKernel(1.5), clock), [0, 0, 0, 1]
        )


class TestWallClockSelfConsistency:
    """The wall clock as an internal clock: conditioning the watch-averaged
    compound state on the wall reading (``bob_conditional``) gives the
    exact-time value (``alice_conditional``)."""

    def test_delta_kernel_agrees_with_alice(self):
        scenario = precession_scenario()
        t = 2 * 0.4
        direct = alice_conditional(scenario, PAULI_X, t)
        assert direct == pytest.approx(np.cos(t), abs=1e-12)
        via_compound = bob_conditional(scenario, DeltaKernel(t), PAULI_X, t)
        assert via_compound == pytest.approx(direct, abs=1e-8)

    def test_broad_kernel_both_match_precession(self):
        scenario = precession_scenario()
        kernel = TabulatedKernel(
            scenario.clock.pointer_times, [1, 2, 4, 8, 8, 4, 2, 1]
        )
        for m in (0, 4, 7):
            t = m * 0.4
            direct = alice_conditional(scenario, PAULI_X, t)
            assert direct == pytest.approx(np.cos(t), abs=1e-9)
            assert abs(direct - bob_conditional(scenario, kernel, PAULI_X, t)) <= 1e-8

    def test_rejects_wrong_observable_dimension(self):
        scenario = precession_scenario()
        kernel = TabulatedKernel(scenario.clock.pointer_times, np.ones(8))
        wrong = Observable(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            alice_conditional(scenario, wrong, 0.4)
        with pytest.raises(DimensionMismatchError):
            bob_conditional(scenario, kernel, wrong, 0.4)

    def test_identity_observable(self):
        scenario = precession_scenario()
        kernel = TabulatedKernel(scenario.clock.pointer_times, np.ones(8))
        identity = Observable(np.eye(2))
        for value in (
            alice_conditional(scenario, identity, 0.8),
            bob_conditional(scenario, kernel, identity, 0.8),
        ):
            assert value == pytest.approx(1.0, abs=1e-10)
