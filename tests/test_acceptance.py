"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion; a pytest failure on any test is that criterion's FAIL.
"""

import inspect
import subprocess
import sys
import time
import types

import numpy as np
import pytest

import relatime
from relatime import (
    ClockSystem,
    CompositeScenario,
    DeltaKernel,
    DensityMatrix,
    Hamiltonian,
    Observable,
    TabulatedKernel,
    UniformKernel,
    alice_conditional,
    bob_conditional,
    coherence_report,
    evolve_pearle,
    evolve_relational_dephasing,
    evolve_relational_quadrature,
    evolve_unitary,
    make_gaussian_kernel,
    partial_trace,
    purity,
    tensor,
    unconditioned_expectation,
)
from conftest import (
    SCENARIO_DIR,
    dense,
    plus_density,
    random_density,
    random_hamiltonian,
    random_hermitian,
    random_pure_density,
)


def _report(number, name):
    print(f"[acceptance] criterion {number} ({name}): PASS")


def kernel_zoo():
    return [
        DeltaKernel(1.7),
        make_gaussian_kernel(0.1, 2.0),
        make_gaussian_kernel(1.0, 0.8),
        UniformKernel(0.9, 1.2),
        TabulatedKernel([0.0, 0.7, 1.9, 3.1], [1.0, 2.0, 1.0, 0.5]),
    ]


def test_criterion_1_delta_kernel_reduction():
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        h = random_hamiltonian(rng, dim)
        t_b = float(rng.uniform(0.0, 5.0))
        exact = evolve_unitary(rho, h, t_b).matrix
        averaged = evolve_relational_quadrature(
            rho, h, DeltaKernel(t_b), 64
        ).matrix
        assert np.max(np.abs(exact - averaged)) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f} s"
    _report(1, "delta-kernel reduction")


@pytest.mark.parametrize("omega", [0.7, 1.0, 2.0])
def test_criterion_2_gaussian_dephasing_law(omega):
    h = Hamiltonian(np.diag([0.0, omega]))
    rho = plus_density()
    for lam in (0.01, 0.1, 1.0):
        for t_b in (0.1, 1.0, 10.0):
            want = 0.5 * np.exp(-lam * t_b * omega**2 / 2.0)
            kernel = make_gaussian_kernel(lam, t_b)
            closed = evolve_relational_dephasing(rho, h, kernel).matrix
            assert abs(abs(closed[0, 1]) - want) <= 1e-9
            quad = evolve_relational_quadrature(rho, h, kernel, 64).matrix
            assert abs(abs(quad[0, 1]) - want) <= 1e-9
    _report(2, f"gaussian dephasing law, gap {omega}")


def test_criterion_3_pearle_equivalence():
    rng = np.random.default_rng(33)
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        rho = random_density(rng, dim)
        h = random_hamiltonian(rng, dim)
        lam = float(rng.uniform(0.05, 0.5))
        t = float(rng.uniform(0.1, 3.0))
        collapsed = evolve_pearle(rho, h, lam, t, 64).matrix
        relational = evolve_relational_dephasing(
            rho, h, make_gaussian_kernel(lam, t)
        ).matrix
        assert np.max(np.abs(collapsed - relational)) <= 1e-8
    _report(3, "collapse == gaussian relational state")


def test_criterion_4_purity_monotonicity():
    rng = np.random.default_rng(44)
    for kernel in kernel_zoo():
        for _ in range(4):
            dim = int(rng.integers(2, 6))
            rho = (
                random_pure_density(rng, dim)
                if rng.uniform() < 0.5
                else random_density(rng, dim)
            )
            h = random_hamiltonian(rng, dim)
            averaged = evolve_relational_quadrature(rho, h, kernel, 64)
            exact = evolve_unitary(rho, h, kernel.t_b)
            assert purity(averaged) <= purity(exact) + 1e-9

    # documented witness: pure |+> against a nondegenerate qubit gap loses
    # purity 1 -> (1 + exp(-lam t_B)) / 2 under a gaussian watch
    witness = evolve_relational_dephasing(
        plus_density(),
        Hamiltonian(np.diag([0.0, 1.0])),
        make_gaussian_kernel(0.1, 2.0),
    )
    drop = 1.0 - purity(witness)
    assert drop > 1e-3
    assert purity(witness) == pytest.approx(0.5 * (1 + np.exp(-0.2)), abs=1e-10)
    _report(4, f"purity monotone, witness drop {drop:.4f}")


def test_criterion_5_energy_diagonal_immunity():
    rng = np.random.default_rng(55)
    for _ in range(5):
        dim = int(rng.integers(2, 7))
        h = random_hamiltonian(rng, dim)
        populations = rng.uniform(0.2, 1.0, size=dim)
        populations /= populations.sum()
        rho = DensityMatrix(
            (h.eigenbasis * populations) @ h.eigenbasis.conj().T
        )
        for kernel in kernel_zoo():
            averaged = evolve_relational_dephasing(rho, h, kernel).matrix
            assert np.max(np.abs(averaged - rho.matrix)) <= 1e-10
            quad = evolve_relational_quadrature(rho, h, kernel, 64).matrix
            assert np.max(np.abs(quad - rho.matrix)) <= 1e-10
            exact = evolve_unitary(rho, h, kernel.t_b).matrix
            assert np.max(np.abs(exact - rho.matrix)) <= 1e-10
    _report(5, "energy-diagonal states are immune")


def test_criterion_6_subsystem_consistency():
    rng = np.random.default_rng(66)
    for _ in range(10):
        d_s, d_c = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        h_s = random_hamiltonian(rng, d_s)
        h_c = random_hamiltonian(rng, d_c)
        rho_s = random_density(rng, d_s)
        rho_c = random_density(rng, d_c)
        h_q = Hamiltonian(
            tensor(dense(h_s), np.eye(d_c)) + tensor(np.eye(d_s), dense(h_c))
        )
        rho_q = DensityMatrix(tensor(rho_s, rho_c))
        kernel = make_gaussian_kernel(
            float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.5, 2.0))
        )
        direct = evolve_relational_dephasing(rho_s, h_s, kernel).matrix
        traced = partial_trace(
            evolve_relational_dephasing(rho_q, h_q, kernel),
            (d_s, d_c),
            keep="S",
        ).matrix
        assert np.max(np.abs(direct - traced)) <= 1e-9
    _report(6, "subsystem average == traced composite average")


def test_criterion_7_clock_recovery_headline():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    checked = 0
    for d in (4, 8, 16):
        clock = ClockSystem(d, 0.3)
        for dim_s in (2, 3):
            scenario = CompositeScenario(
                random_hamiltonian(rng, dim_s, scale=1.5),
                random_density(rng, dim_s),
                clock,
            )
            observable = Observable(random_hermitian(rng, dim_s, scale=2.0))
            weights = rng.uniform(0.05, 1.0, size=d)
            kernel = TabulatedKernel(clock.pointer_times, weights)
            for m in range(d):
                t = float(clock.pointer_times[m])
                a = alice_conditional(scenario, observable, t)
                b = bob_conditional(scenario, kernel, observable, t)
                assert abs(a - b) <= 1e-8
                checked += 1

    # complete-decoherence half: a kernel much broader than the clock
    # period pins the unconditioned value while the exact curve swings
    h_s = Hamiltonian(np.diag([0.0, 1.0]))
    clock = ClockSystem(8, 0.4)
    scenario = CompositeScenario(h_s, plus_density(), clock)
    pauli_x = Observable([[0, 1], [1, 0]])
    sigma = 1e4 * clock.period

    def broad(center):
        w = np.exp(-((clock.pointer_times - center) ** 2) / (2 * sigma**2))
        return TabulatedKernel(clock.pointer_times, w)

    flat = [
        unconditioned_expectation(scenario, broad(c), pauli_x)
        for c in (0.8, 1.2, 1.6, 2.0)
    ]
    assert np.ptp(flat) < 1e-6

    alice_curve = [
        alice_conditional(scenario, pauli_x, m * 0.4) for m in range(8)
    ]
    assert np.ptp(alice_curve) > 0.1
    kernel = broad(1.2)
    for m in range(8):
        t = m * 0.4
        assert abs(
            bob_conditional(scenario, kernel, pauli_x, t) - alice_curve[m]
        ) <= 1e-8

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"
    _report(7, f"clock recovery, {checked} conditional readouts")


def test_criterion_8_complete_decoherence_limit():
    cases = [
        # (spectrum, lam, t_b) with lam * t_B * omega_min^2 >= 50
        ([0.0, 1.0, 2.3], 5.0, 10.0),
        ([0.0, 2.0, 4.6, 7.0], 0.5, 25.0),
    ]
    for spectrum, lam, t_b in cases:
        omega_min = min(np.diff(sorted(spectrum)))
        assert lam * t_b * omega_min**2 >= 50.0
        dim = len(spectrum)
        h = Hamiltonian(np.diag(np.array(spectrum)))
        rho = DensityMatrix(np.full((dim, dim), 1.0 / dim))
        kernel = make_gaussian_kernel(lam, t_b)
        averaged = evolve_relational_dephasing(rho, h, kernel).matrix
        offdiag = np.abs(averaged - np.diag(np.diag(averaged)))
        assert np.max(offdiag) < 1e-9
        report = coherence_report(rho, h, kernel)
        assert report.complete_decoherence
    _report(8, "complete decoherence beyond the gap threshold")


def test_criterion_9_cli_regression(tmp_path):
    jobs = [
        ("sweep", SCENARIO_DIR / "qubit_decoherence.scn"),
        ("clock-recovery", SCENARIO_DIR / "clock_recovery.scn"),
        ("pearle-compare", SCENARIO_DIR / "pearle_compare.scn"),
    ]
    for command, path in jobs:
        outputs = []
        for run in (1, 2):
            target = tmp_path / f"{command}-{run}.csv"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "relatime",
                    command,
                    str(path),
                    "--seed",
                    "0",
                    "--out",
                    str(target),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1], f"{command} output not reproducible"

    pearle_csv = (tmp_path / "pearle-compare-1.csv").read_text()
    rows = [
        line
        for line in pearle_csv.splitlines()
        if line and not line.startswith("#") and not line.startswith("t,")
    ]
    distances = [float(row.split(",")[1]) for row in rows]
    assert max(distances) <= 1e-8
    _report(9, "CLI outputs byte-identical, collapse distance in budget")


# Every public name of the package. A name is added or removed only by a
# deliberate edit of this list: each one is a runner's, a route of one of
# the paired checks, or the types and errors they take and raise.
PUBLIC_NAMES = [
    "ClockSystem", "CoherenceReport", "CompositeScenario", "ConsistencyError",
    "DIMENSION_CAP", "DeltaKernel", "DensityMatrix", "DimensionMismatchError",
    "DimensionOverflowError", "EigensolverError", "EmptyTableError",
    "GaussianKernel", "HERMITICITY_TOL", "Hamiltonian", "InvalidDimensionError",
    "KernelOffGridError", "NonPositiveLambdaError", "NotHermitianError",
    "NotPointerTimeError", "NotPositiveError", "Observable", "PSD_TOL",
    "QuadratureDriftError", "QuadratureRule", "QuantumStateError",
    "RelatimeError", "ResultTable", "ScenarioFile", "ScenarioParseError",
    "ScenarioValidationError", "TRACE_TOL", "TabulatedKernel", "TimeKernel",
    "TraceNotOneError", "UniformKernel", "ZeroProbabilityError",
    "alice_conditional", "bob_conditional", "bob_state", "coherence_report",
    "discretize_on_grid", "evolve_pearle", "evolve_relational_dephasing",
    "evolve_relational_quadrature", "evolve_unitary", "expectation",
    "make_gaussian_kernel", "parse_scenario",
    "partial_trace", "pointer_weights", "purity", "quadrature_for",
    "run_clock_recovery", "run_decoherence_sweep", "run_pearle_compare",
    "run_report", "tensor", "unconditioned_expectation",
]


# The parameters of every public function and class, error classes aside. A
# settable value is added or removed only by a deliberate edit of this map.
PUBLIC_PARAMETERS = {
    "ClockSystem": ("dim", "tick"),
    "CoherenceReport": (
        "i", "j", "energy_i", "energy_j", "magnitude_exact", "magnitude_averaged",
        "max_offdiag_averaged", "complete_decoherence", "threshold",
    ),
    "CompositeScenario": ("system_hamiltonian", "system_state", "clock"),
    "DeltaKernel": ("t_b",),
    "DensityMatrix": ("matrix",),
    "GaussianKernel": ("lam", "t_b"),
    "Hamiltonian": ("matrix",),
    "Observable": ("matrix",),
    "QuadratureRule": ("nodes", "weights"),
    "ResultTable": ("columns", "metadata", "footer", "blocks"),
    "ScenarioFile": (
        "dimension", "system_hamiltonian", "initial_state", "kernel_spec",
        "observable", "clock", "sweep", "sha256", "seed",
    ),
    "TabulatedKernel": ("times", "weights"),
    "TimeKernel": (),
    "UniformKernel": ("half_width", "t_b"),
    "alice_conditional": ("scenario", "observable", "t_a"),
    "bob_conditional": ("scenario", "kernel", "observable", "t"),
    "bob_state": ("scenario", "kernel"),
    "coherence_report": ("rho0", "hamiltonian", "kernel", "threshold"),
    "discretize_on_grid": ("kernel", "clock"),
    "evolve_pearle": ("rho0", "hamiltonian", "lam", "t", "nodes"),
    "evolve_relational_dephasing": ("rho0", "hamiltonian", "kernel"),
    "evolve_relational_quadrature": ("rho0", "hamiltonian", "kernel", "nodes"),
    "evolve_unitary": ("rho0", "hamiltonian", "t"),
    "expectation": ("observable", "rho"),
    "make_gaussian_kernel": ("lam", "t_b"),
    "parse_scenario": ("text", "seed"),
    "partial_trace": ("rho", "dims", "keep"),
    "pointer_weights": ("kernel", "clock"),
    "purity": ("rho",),
    "quadrature_for": ("kernel", "node_count"),
    "run_clock_recovery": ("scn",),
    "run_decoherence_sweep": ("scn",),
    "run_pearle_compare": ("scn", "nodes"),
    "run_report": ("scn", "threshold"),
    "tensor": ("a", "b"),
    "unconditioned_expectation": ("scenario", "kernel", "observable"),
}


def test_public_names_are_pinned():
    names = [
        name for name, value in vars(relatime).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == PUBLIC_NAMES


def test_public_parameters_are_pinned():
    values = [getattr(relatime, name) for name in PUBLIC_NAMES]
    pinned = [
        name for name, value in zip(PUBLIC_NAMES, values) if callable(value)
        and not (isinstance(value, type) and issubclass(value, Exception))
    ]
    assert sorted(PUBLIC_PARAMETERS) == pinned
    for name, parameters in PUBLIC_PARAMETERS.items():
        signature = inspect.signature(getattr(relatime, name))
        assert tuple(signature.parameters) == parameters, name
