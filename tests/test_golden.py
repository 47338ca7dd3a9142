"""Pinned CLI outputs: refactors must not move the numbers.

Each case runs one subcommand on one scenario and compares the CSV with a
committed golden file in ``tests/golden``. The header row and the footer
lines must match exactly and every numeric cell within ``ABS_TOL``. The
leading ``#`` metadata block (version, digest, provenance) is not
compared. ``dense_d8.scn`` has a dense Hamiltonian, state and observable,
so a basis-change error shows in every column; ``dense_clock_d8.scn``
reads the same system through an 8-state clock.

Regenerate (only when a change is meant to move the numbers)::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from relatime.cli import main
from conftest import SCENARIO_DIR

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
ABS_TOL = 1e-12

CASES = [
    ("sweep", SCENARIO_DIR / "qubit_decoherence.scn"),
    ("clock-recovery", SCENARIO_DIR / "clock_recovery.scn"),
    ("pearle-compare", SCENARIO_DIR / "pearle_compare.scn"),
    ("sweep", GOLDEN_DIR / "dense_d8.scn"),
    ("report", GOLDEN_DIR / "dense_d8.scn"),
    ("clock-recovery", GOLDEN_DIR / "dense_clock_d8.scn"),
]


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
    header, rows, footer = split_csv(run_cli(command, scenario, tmp_path / "out.csv"))
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
    for command, scenario in CASES:
        run_cli(command, scenario, golden_path(command, scenario))
