"""Pinned CLI outputs: refactors must not move the numbers.

Each case runs one subcommand on one scenario and compares the CSV with a
committed golden file in ``tests/golden``. The header row and the footer
lines must match exactly and every numeric cell within ``ABS_TOL``. The
leading ``#`` metadata block (version, digest, provenance) is not
compared. ``dense_d8.scn`` has a dense Hamiltonian, state and observable,
so a basis-change error shows in every column; ``dense_clock_d8.scn``
reads the same system through an 8-state clock. The variants
``dense_d8_uniform``, ``dense_d8_lambda`` and ``dense_d8_t0`` sweep it through
the other envelopes a sweep builds: a uniform watch over t_B, a gaussian one
over lambda, and a gaussian one over t_B from 0.0, where the kernel is the
delta kernel. A variant is ``dense_d8.scn`` with its kernel and sweep lines
replaced (``VARIANTS``); ``scenario_file`` writes it out for the CLI.

Regenerate (only when a change is meant to move the numbers)::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from relatime.cli import main
from conftest import SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-12
DENSE_D8 = GOLDEN_DIR / "dense_d8.scn"

# the lines of dense_d8.scn each variant replaces, and what it puts there
VARIANTS = {
    "dense_d8_uniform": {"  kind gaussian\n  lambda 0.3\n  t_b 1.0\n":
                         "  kind uniform\n  half_width 1.2\n  t_b 1.5\n"},
    "dense_d8_lambda": {"  t_b 1.0\n": "  t_b 1.5\n",
                        "  variable t_B\n  start 0.1\n": "  variable lambda\n  start 0.05\n"},
    "dense_d8_t0": {"  t_b 1.0\n": "  t_b 1.5\n", "  start 0.1\n": "  start 0.0\n"},
}

CASES = [
    ("sweep", SCENARIO_DIR / "qubit_decoherence.scn"),
    ("clock-recovery", SCENARIO_DIR / "clock_recovery.scn"),
    ("pearle-compare", SCENARIO_DIR / "pearle_compare.scn"),
    ("sweep", GOLDEN_DIR / "dense_d8.scn"),
    ("report", GOLDEN_DIR / "dense_d8.scn"),
    ("clock-recovery", GOLDEN_DIR / "dense_clock_d8.scn"),
    *[("sweep", GOLDEN_DIR / f"{name}.scn") for name in VARIANTS],
]


def variant_text(name: str) -> str:
    """dense_d8.scn with the kernel and sweep lines of variant ``name``."""
    text = DENSE_D8.read_text()
    for old, new in VARIANTS[name].items():
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def scenario_file(scenario: Path, directory: Path) -> Path:
    """A case's scenario file: committed, or its variant written to ``directory``."""
    if scenario.stem not in VARIANTS:
        return scenario
    path = directory / scenario.name
    path.write_text(variant_text(scenario.stem))
    return path


def golden_path(command: str, scenario: Path) -> Path:
    return GOLDEN_DIR / f"{scenario.stem}.{command}.csv"


def split_csv(text: str):
    """(header, rows, footer) with the leading metadata block dropped."""
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    end = len(lines)
    while lines[end - 1].startswith("#"):
        end -= 1
    rows = [line.split(",") for line in lines[start + 1:end]]
    return lines[start], rows, lines[end:]


def run_cli(command: str, scenario: Path, out: Path) -> str:
    assert main([command, str(scenario), "--out", str(out)]) == 0
    return out.read_text()


@pytest.mark.parametrize(
    "command, scenario", CASES, ids=[f"{c}-{s.stem}" for c, s in CASES]
)
def test_matches_golden(command, scenario, tmp_path):
    path = scenario_file(scenario, tmp_path)
    header, rows, footer = split_csv(run_cli(command, path, tmp_path / "out.csv"))
    g_header, g_rows, g_footer = split_csv(golden_path(command, scenario).read_text())
    assert header == g_header
    assert footer == g_footer
    assert len(rows) == len(g_rows)
    for k, (row, g_row) in enumerate(zip(rows, g_rows)):
        assert len(row) == len(g_row), f"row {k}"
        for name, cell, g_cell in zip(header.split(","), row, g_row):
            assert float(cell) == pytest.approx(float(g_cell), rel=0, abs=ABS_TOL), (
                f"row {k}, column {name}: {cell} vs golden {g_cell}"
            )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as directory:
        for command, scenario in CASES:
            path = scenario_file(scenario, Path(directory))
            run_cli(command, path, golden_path(command, scenario))
