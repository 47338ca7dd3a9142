"""Seeded scenario generators and independent output checks.

Each workload turns a seed into one scenario file, byte-identical for the
same seed, plus the numbers a correct CLI run must print. The expected
numbers are computed here with plain numpy straight from the generated
inputs (the benchmark's own unitaries, spectra and states), never by
calling relatime, so a check cannot inherit a defect of the code it
checks.

The four benchmark workloads each load a different layer; the ``-tiny``
variants have the same structure at d = 8 (D = 16 for the clock) so the
benchmark's own tests run in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LAM = 0.1  # Gaussian watch-error rate of the sweep and pearle workloads
VALUE_TOL = 1e-8  # absolute budget for values recomputed here
PEARLE_DISTANCE_TOL = 1e-8
CLOCK_DIFFERENCE_TOL = 1e-9


@dataclass(frozen=True)
class Shape:
    """Problem size of one workload, as recorded with every result."""

    command: str
    dim: int  # system dimension d (d_S for clock readout)
    clock_dim: int = 0  # d_C; composite D = dim * clock_dim
    steps: int = 0  # sweep points (readouts for the clock)
    nodes: int = 0  # --nodes passed to the CLI; 0 keeps its default

    @property
    def rows(self) -> int:
        """Data rows a correct run writes."""
        if self.command == "report":
            return self.dim * (self.dim - 1) // 2
        if self.command == "clock-recovery":
            return self.clock_dim
        return self.steps


SHAPES: dict[str, Shape] = {
    "sweep-d256": Shape("sweep", dim=256, steps=25),
    "pearle-d128": Shape("pearle-compare", dim=128, steps=60, nodes=256),
    "clock-D384": Shape("clock-recovery", dim=12, clock_dim=32, steps=32),
    "report-d384": Shape("report", dim=384),
    "sweep-tiny": Shape("sweep", dim=8, steps=5),
    "pearle-tiny": Shape("pearle-compare", dim=8, steps=6, nodes=64),
    "clock-tiny": Shape("clock-recovery", dim=2, clock_dim=8, steps=8),
    "report-tiny": Shape("report", dim=8),
}


@dataclass(frozen=True)
class Scenario:
    """One generated scenario: file text, CLI arguments and check data."""

    name: str
    shape: Shape
    seed: int
    text: str
    expected: dict

    def job_args(self, path: str, out: str) -> list[str]:
        """Arguments after ``python -m relatime`` for one job."""
        args = [self.shape.command, path, "--out", out, "--seed", str(self.seed)]
        if self.shape.nodes:
            args += ["--nodes", str(self.shape.nodes)]
        return args

    def validate_args(self, path: str) -> list[str]:
        return ["validate", path, "--seed", str(self.seed)]


# ---------------------------------------------------------------------------
# generation


def _num(x: float) -> str:
    return repr(float(x))


def _matrix_block(name: str, matrix: np.ndarray) -> list[str]:
    lines = [f"  {name} {{"]
    for row in matrix:
        pairs = np.column_stack((row.real, row.imag)).ravel().tolist()
        lines.append("    row " + " ".join(map(repr, pairs)))
    lines.append("  }")
    return lines


def _unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _dense_hamiltonian(basis: np.ndarray, energies: np.ndarray) -> np.ndarray:
    h = (basis * energies) @ basis.conj().T
    return 0.5 * (h + h.conj().T)


def _sweep(name: str, shape: Shape, seed: int, rng) -> Scenario:
    d = shape.dim
    energies = np.arange(d) / (d - 1)  # ladder: every gap m / (d - 1) occurs
    basis = _unitary(rng, d)
    start, stop = 0.4, 10.0
    lines = [
        f"# {name}: dense ladder Hamiltonian rotated by a seeded unitary",
        "system {",
        f"  dimension {d}",
        *_matrix_block("hamiltonian", _dense_hamiltonian(basis, energies)),
        "  state plus_state",
        "}",
        "kernel {",
        "  kind gaussian",
        f"  lambda {_num(LAM)}",
        f"  t_b {_num(start)}",
        "}",
        "observable {",
        "  preset number_op",
        "}",
        "sweep {",
        "  variable t_B",
        f"  start {_num(start)}",
        f"  stop {_num(stop)}",
        f"  steps {shape.steps}",
        "}",
    ]
    expected = {"basis": basis, "energies": energies, "start": start, "stop": stop}
    return Scenario(name, shape, seed, "\n".join(lines) + "\n", expected)


def _pearle(name: str, shape: Shape, seed: int, rng) -> Scenario:
    d = shape.dim
    start, stop = 0.5, 10.0
    # Largest gap times sqrt(lam * t) stays <= 1, so 64+ Gauss-Hermite
    # nodes resolve every gap and the distance column is pure roundoff.
    e_max = 1.0 / math.sqrt(LAM * stop)
    energies = np.sort(rng.uniform(0.0, e_max, d))
    energies[0], energies[-1] = 0.0, e_max
    lines = [
        f"# {name}: seeded spectrum with |gap| * sqrt(lambda t) <= 1",
        "system {",
        f"  dimension {d}",
        "  spectrum " + " ".join(map(repr, energies.tolist())),
        "  state plus_state",
        "}",
        "kernel {",
        "  kind gaussian",
        f"  lambda {_num(LAM)}",
        f"  t_b {_num(start)}",
        "}",
        "observable {",
        "  preset number_op",
        "}",
        "sweep {",
        "  variable t_B",
        f"  start {_num(start)}",
        f"  stop {_num(stop)}",
        f"  steps {shape.steps}",
        "}",
    ]
    expected = {"energies": energies, "start": start, "stop": stop}
    return Scenario(name, shape, seed, "\n".join(lines) + "\n", expected)


def _clock(name: str, shape: Shape, seed: int, rng) -> Scenario:
    d, d_c = shape.dim, shape.clock_dim
    tick = 3.0 / d_c  # one clock period spans t in [0, 3)
    energies = np.sort(rng.uniform(0.0, 2.0, d))
    basis = _unitary(rng, d)
    weights = rng.uniform(0.5, 1.5, d_c)
    table = [f"    {_num(m * tick)} {_num(w)}" for m, w in enumerate(weights)]
    lines = [
        f"# {name}: seeded positive watch weight on every pointer time",
        "system {",
        f"  dimension {d}",
        *_matrix_block("hamiltonian", _dense_hamiltonian(basis, energies)),
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
        f"  tick {_num(tick)}",
        "}",
        "observable {",
        "  preset number_op",
        "}",
    ]
    expected = {"basis": basis, "energies": energies, "tick": tick}
    return Scenario(name, shape, seed, "\n".join(lines) + "\n", expected)


def _report(name: str, shape: Shape, seed: int, rng) -> Scenario:
    d = shape.dim
    energies = np.arange(d) / (d - 1)
    basis = _unitary(rng, d)
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    half_width = 2.0
    lines = [
        f"# {name}: dense Hamiltonian and explicit pure state",
        "system {",
        f"  dimension {d}",
        *_matrix_block("hamiltonian", _dense_hamiltonian(basis, energies)),
        *_matrix_block("state", np.outer(psi, psi.conj())),
        "}",
        "kernel {",
        "  kind uniform",
        f"  half_width {_num(half_width)}",
        "  t_b 1.0",
        "}",
        "observable {",
        "  preset number_op",
        "}",
    ]
    expected = {
        "basis": basis,
        "energies": energies,
        "psi": psi,
        "half_width": half_width,
    }
    return Scenario(name, shape, seed, "\n".join(lines) + "\n", expected)


_GENERATORS = {
    "sweep": _sweep,
    "pearle-compare": _pearle,
    "clock-recovery": _clock,
    "report": _report,
}


def generate(name: str, seed: int) -> Scenario:
    """Build workload ``name`` from ``seed``; the same seed, the same bytes."""
    shape = SHAPES[name]
    rng = np.random.default_rng(seed)
    return _GENERATORS[shape.command](name, shape, seed, rng)


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Table:
    header: list[str]
    data: np.ndarray  # rows x columns, float
    footer: dict[str, str]


def parse_csv(text: str) -> Table:
    """Split CLI CSV into header, numeric rows and '# key: value' footer."""
    lines = text.splitlines()
    body = [k for k, line in enumerate(lines) if not line.startswith("#")]
    if not body:
        raise ValueError("no header line")
    first, last = body[0], body[-1]
    header = lines[first].split(",")
    rows = [line.split(",") for line in lines[first + 1 : last + 1]]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    footer = {}
    for line in lines[last + 1 :]:
        key, _, value = line[2:].partition(": ")
        footer[key] = value
    return Table(header, data, footer)


def _close(problems: list[str], what: str, got, want, tol: float = VALUE_TOL):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    err = float(np.max(np.abs(got - want), initial=0.0))
    if not err <= tol:
        problems.append(f"{what}: off by {err:.3e} (tolerance {tol:.1e})")


def _column(table: Table, name: str) -> np.ndarray:
    return table.data[:, table.header.index(name)]


def _check_sweep(scn: Scenario, table: Table, problems: list[str]) -> None:
    exp = scn.expected
    basis, energies = exp["basis"], exp["energies"]
    d = scn.shape.dim
    t_b = np.linspace(exp["start"], exp["stop"], scn.shape.steps)
    _close(problems, "t_B", _column(table, "t_B"), t_b, 1e-12)

    gap_names = [h for h in table.header if h.startswith("dephase_gap_")]
    gaps = np.arange(1, d) / (d - 1)
    header_gaps = [float(h[len("dephase_gap_") :]) for h in gap_names]
    if len(header_gaps) != d - 1:
        problems.append(f"{len(header_gaps)} gap columns, expected {d - 1}")
    else:
        _close(problems, "gap column labels", header_gaps, gaps, 1e-5 * gaps.max())
        want = np.exp(-0.5 * LAM * np.outer(t_b, gaps**2))
        got = np.column_stack([_column(table, h) for h in gap_names])
        _close(problems, "dephase_gap_*", got, want)

    rho_e = basis.conj().T @ np.full((d, d), 1.0 / d) @ basis
    n_e = basis.conj().T @ np.diag(np.arange(d)) @ basis
    omega = energies[:, None] - energies[None, :]
    offdiag = ~np.eye(d, dtype=bool)
    expect_a, expect_b, purity_b, max_off = [], [], [], []
    for t in t_b:
        phase = np.exp(-1j * omega * t)
        damped = rho_e * phase * np.exp(-0.5 * LAM * t * omega**2)
        expect_a.append(np.sum(n_e.T * rho_e * phase).real)
        expect_b.append(np.sum(n_e.T * damped).real)
        purity_b.append(np.sum(np.abs(damped) ** 2))
        max_off.append(np.max(np.abs(damped[offdiag]), initial=0.0))
    _close(problems, "expect_A", _column(table, "expect_A"), expect_a)
    _close(problems, "expect_B", _column(table, "expect_B"), expect_b)
    _close(problems, "purity_A", _column(table, "purity_A"), np.ones_like(t_b))
    _close(problems, "purity_B", _column(table, "purity_B"), purity_b)
    _close(problems, "max_offdiag", _column(table, "max_offdiag"), max_off)


def _check_pearle(scn: Scenario, table: Table, problems: list[str]) -> None:
    exp = scn.expected
    d = scn.shape.dim
    t = np.linspace(exp["start"], exp["stop"], scn.shape.steps)
    _close(problems, "t", _column(table, "t"), t, 1e-12)
    distance = _column(table, "maxnorm_distance")
    if not np.all(distance <= PEARLE_DISTANCE_TOL):
        problems.append(
            f"maxnorm_distance reaches {float(np.max(distance)):.3e} "
            f"(limit {PEARLE_DISTANCE_TOL:.0e})"
        )
    # plus_state in the (diagonal) energy basis: every element is 1/d, so
    # the largest surviving coherence sits at the smallest gap.
    gaps = np.abs(np.subtract.outer(exp["energies"], exp["energies"]))
    g_min = float(np.min(gaps[~np.eye(d, dtype=bool)]))
    want = np.exp(-0.5 * LAM * t * g_min**2) / d
    _close(problems, "offdiag_relational", _column(table, "offdiag_relational"), want)


def _random_mixed(seed: int, dim: int) -> np.ndarray:
    # The CLI's random_mixed preset: A A^dag / Tr, A complex Gaussian drawn
    # from default_rng(--seed).
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def _check_clock(scn: Scenario, table: Table, problems: list[str]) -> None:
    exp = scn.expected
    basis, energies = exp["basis"], exp["energies"]
    d = scn.shape.dim
    t = np.arange(scn.shape.clock_dim) * exp["tick"]
    _close(problems, "t", _column(table, "t"), t, 1e-12)
    rho_e = basis.conj().T @ _random_mixed(scn.seed, d) @ basis
    n_e = basis.conj().T @ np.diag(np.arange(d)) @ basis
    omega = energies[:, None] - energies[None, :]
    alice = [np.sum(n_e.T * rho_e * np.exp(-1j * omega * tk)).real for tk in t]
    _close(problems, "alice_value", _column(table, "alice_value"), alice)
    _close(problems, "bob_value", _column(table, "bob_value"), alice)
    worst = table.footer.get("max_abs_difference")
    if worst is None or not float(worst) <= CLOCK_DIFFERENCE_TOL:
        problems.append(
            f"max_abs_difference {worst} exceeds {CLOCK_DIFFERENCE_TOL:.0e}"
        )


def _check_report(scn: Scenario, table: Table, problems: list[str]) -> None:
    exp = scn.expected
    d = scn.shape.dim
    i, j = np.triu_indices(d, k=1)
    _close(problems, "i", _column(table, "i"), i, 0.0)
    _close(problems, "j", _column(table, "j"), j, 0.0)
    if problems:
        return
    energies = exp["energies"]
    e_i, e_j = _column(table, "energy_i"), _column(table, "energy_j")
    _close(problems, "energy_i", e_i, energies[i])
    _close(problems, "energy_j", e_j, energies[j])
    psi_e = np.abs(exp["basis"].conj().T @ exp["psi"])
    mag_a = _column(table, "magnitude_A")
    _close(problems, "magnitude_A", mag_a, psi_e[i] * psi_e[j])
    # |chi| of the uniform kernel is |sinc(gap * half_width)|.
    x = (e_j - e_i) * exp["half_width"]
    want_b = mag_a * np.abs(np.sinc(x / np.pi))
    mag_b = _column(table, "magnitude_B")
    _close(problems, "magnitude_B", mag_b, want_b)
    _close(
        problems,
        "footer max_offdiag_B",
        float(table.footer.get("max_offdiag_B", "nan")),
        float(np.max(want_b)),
    )


_CHECKS = {
    "sweep": _check_sweep,
    "pearle-compare": _check_pearle,
    "clock-recovery": _check_clock,
    "report": _check_report,
}


def check_output(scn: Scenario, csv_text: str) -> list[str]:
    """Problems found in one job's CSV; an empty list means it is correct."""
    try:
        table = parse_csv(csv_text)
    except ValueError as exc:
        return [f"unreadable CSV: {exc}"]
    problems: list[str] = []
    if table.data.shape[0] != scn.shape.rows:
        return [f"{table.data.shape[0]} data rows, expected {scn.shape.rows}"]
    try:
        _CHECKS[scn.shape.command](scn, table, problems)
    except (KeyError, ValueError) as exc:
        problems.append(f"missing or malformed column: {exc!r}")
    return problems
