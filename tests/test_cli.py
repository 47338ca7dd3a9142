import errno
import gc
import importlib
import inspect
import io
import os
import re
import runpy
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from numpy._core._exceptions import _ArrayMemoryError
from hypothesis import example, given, settings, strategies as st

from relatime import GaussianKernel, scenario as scenario_module
from relatime.cli import _RUNNERS, build_parser, main
from conftest import SCENARIO_DIR, random_hermitian
from test_clockmodel import scaled_clock_recovery
from test_golden import CASES as GOLDEN_CASES, GOLDEN_DIR, scenario_file
from test_scenario import MINIMAL, PARSE_CASES, PARSE_EXPECTED, SWEEP_BLOCK, wide_sweep

QUBIT = SCENARIO_DIR / "qubit_decoherence.scn"
CLOCKED = SCENARIO_DIR / "clock_recovery.scn"
PEARLE = SCENARIO_DIR / "pearle_compare.scn"


def test_bundled_scenarios_exist():
    for path in (QUBIT, CLOCKED, PEARLE):
        assert path.is_file(), path


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", str(QUBIT)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK:")
        assert "gaussian" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(QUBIT.read_text().replace("kind gaussian", "kind gausian"))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("E_PARSE:")

    def test_validation_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text(QUBIT.read_text().replace("lambda 0.1", "lambda -0.1"))
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("E_VALIDATION:")

    def test_missing_file(self, capsys):
        assert main(["validate", "does/not/exist.scn"]) == 2
        assert capsys.readouterr().err.startswith("E_VALIDATION:")

    def test_undecodable_file_is_a_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_bytes(b"system {\n\xff\n}\n")
        assert main(["validate", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("E_VALIDATION: 'utf-8' codec")

    def test_bad_seed_rejected(self, capsys):
        assert main(["validate", str(QUBIT), "--seed", "-1"]) == 2
        assert "E_VALIDATION" in capsys.readouterr().err


def _alike_gaps(tmp_path):
    """A d = 3 sweep whose first two gap names need ``repr``."""
    text = (MINIMAL + SWEEP_BLOCK).replace("dimension 2", "dimension 3")
    text = text.replace("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0000001")
    path = tmp_path / "alike.scn"
    path.write_text(text.replace("preset pauli_x", "preset number_op"))
    return path


def _table(out: str) -> np.ndarray:
    """The data rows of a CSV printed to stdout."""
    rows = [line for line in out.splitlines() if line and not line.startswith("#")]
    return np.array([row.split(",") for row in rows[1:]], dtype=float)


def _dense_sweep(dim: int) -> str:
    """A t_B sweep over a dense random H of dimension ``dim`` from |+>."""
    h = random_hermitian(np.random.default_rng(0), dim, scale=2.0)
    rows = "".join(
        "    row " + " ".join(f"{z.real!r} {z.imag!r}" for z in row.tolist()) + "\n"
        for row in h
    )
    text = (MINIMAL + SWEEP_BLOCK).replace("dimension 2", f"dimension {dim}")
    text = text.replace("spectrum 0.0 1.0", "hamiltonian {\n" + rows + "  }")
    return text.replace("preset pauli_x", "preset number_op")


def _skewed_state(dim: int = 64, beta: float = -2e-9) -> str:
    """A t_B sweep from M = alpha (I - v v^dag) + beta v v^dag, v = (1, ..., 1) /
    sqrt(dim), alpha = (1 - beta) / (dim - 1), plus a real skew: 4.9e-11 below the
    diagonal and -4.9e-11 above it."""
    below = np.tril(np.full((dim, dim), 4.9e-11), -1)
    m = (1 - beta) / (dim - 1) * (np.eye(dim) - 1.0 / dim) + beta / dim
    rows = "".join("    row " + " ".join(f"{x!r} 0" for x in row.tolist()) + "\n"
                   for row in m + below - below.T)
    text = (MINIMAL + SWEEP_BLOCK).replace("dimension 2", f"dimension {dim}")
    levels = " ".join(map(str, range(dim)))
    text = text.replace("spectrum 0.0 1.0", f"spectrum {levels}")
    text = text.replace("state plus_state", "state {\n" + rows + "  }")
    return text.replace("preset pauli_x", "preset number_op")


@pytest.mark.parametrize("command", ["validate", "sweep", "pearle-compare", "report"])
def test_an_admitted_skew_hides_no_negative_eigenvalue(command, tmp_path, capsys):
    # the defect 9.8e-11 is admitted; the state's Hermitian part M has lambda_min
    # = beta below -PSD_TOL, and validate refuses it as every runner does (the
    # lower triangle alone, which a factor reads, has lambda_min above 0)
    path = tmp_path / "skewed.scn"
    path.write_text(_skewed_state())
    assert main([command, str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("  - system state: density matrix is not positive "
                        "semidefinite: smallest eigenvalue -2.000e-09\n")


class TestRunners:
    def test_sweep_to_stdout(self, capsys):
        assert main(["sweep", str(QUBIT)]) == 0
        out = capsys.readouterr().out
        assert "t_B,expect_A,expect_B" in out
        assert "# seed: 0" in out

    def test_sweep_to_file(self, tmp_path):
        target = tmp_path / "out.csv"
        assert main(["sweep", str(QUBIT), "--out", str(target)]) == 0
        assert target.read_text().startswith("# generator: relatime")

    def test_clock_recovery(self, capsys):
        assert main(["clock-recovery", str(CLOCKED)]) == 0
        out = capsys.readouterr().out
        assert "alice_value,bob_value" in out
        footer = next(l for l in out.splitlines() if "max_abs_difference" in l)
        assert float(footer.split(":")[1]) <= 1e-8

    def test_clock_recovery_with_a_tick_of_4e_8(self, tmp_path, capsys):
        # the bundled clock in a unit of time 1e7 times finer
        path = tmp_path / "fine.scn"
        path.write_text(scaled_clock_recovery(1e7))
        assert main(["clock-recovery", str(path)]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        footer = next(l for l in out.splitlines() if "max_abs_difference" in l)
        assert float(footer.split(":")[1]) <= 1e-8

    def test_clock_recovery_of_a_1e8_observable(self, tmp_path, capsys):
        # the bundled readout in a unit of the observable 1e8 times finer:
        # its values scale, and no absolute bound refuses them
        sigma_x = "matrix {\n    row 0 0 1e8 0\n    row 1e8 0 0 0\n  }"
        path = tmp_path / "large.scn"
        path.write_text(CLOCKED.read_text().replace("preset pauli_x", sigma_x))
        assert main(["clock-recovery", str(path)]) == 0
        large = _table(capsys.readouterr().out)
        assert main(["clock-recovery", str(CLOCKED)]) == 0
        bundled = _table(capsys.readouterr().out)
        np.testing.assert_array_equal(large[:, 0], bundled[:, 0])
        np.testing.assert_allclose(large[:, 1:3], 1e8 * bundled[:, 1:3], rtol=1e-12)

    @pytest.mark.parametrize("scale", ["100", "1e8"])
    def test_clock_recovery_of_a_skewed_state(self, scale, tmp_path, capsys):
        # the state holds the Hermitian part of a skewed input, so each value
        # is the bundled one's, scaled, whatever the observable's unit
        state = "state {\n    row 0.5 0 0.5 1e-11\n    row 0.5 0 0.5 0\n  }"
        sigma_x = f"matrix {{\n    row 0 0 {scale} 0\n    row {scale} 0 0 0\n  }}"
        text = CLOCKED.read_text().replace("state plus_state", state)
        path = tmp_path / "skewed.scn"
        path.write_text(text.replace("preset pauli_x", sigma_x))
        assert main(["clock-recovery", str(path)]) == 0
        skewed = _table(capsys.readouterr().out)
        assert main(["clock-recovery", str(CLOCKED)]) == 0
        bundled = _table(capsys.readouterr().out)
        expected = float(scale) * bundled[:, 1:3]
        np.testing.assert_allclose(skewed[:, 1:3], expected, rtol=1e-9)

    def test_sweep_of_a_1e6_observable(self, tmp_path, capsys):
        # a dense d = 64 H leaves roundoff in the imaginary part that grows
        # with N; diag(k * 1e6) reads 1e6 times diag(k)
        text = _dense_sweep(64)
        assert "preset number_op" in text
        large = "matrix {\n" + "".join(
            f"    row {' '.join(['0 0'] * k + [f'{k}e6 0'] + ['0 0'] * (63 - k))}\n"
            for k in range(64)
        ) + "  }"
        tables = []
        for observable in (large, "preset number_op"):
            path = tmp_path / "dense.scn"
            path.write_text(text.replace("preset number_op", observable))
            assert main(["sweep", str(path)]) == 0
            tables.append(_table(capsys.readouterr().out))
        scaled, unit = tables
        np.testing.assert_array_equal(scaled[:, 3:], unit[:, 3:])
        np.testing.assert_allclose(scaled[:, 1:3], 1e6 * unit[:, 1:3], rtol=1e-12)

    def test_pearle_compare(self, capsys):
        assert main(["pearle-compare", str(PEARLE)]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and not l.startswith("#")][1:]
        distances = [float(r.split(",")[1]) for r in rows]
        assert max(distances) <= 1e-8

    def test_report(self, capsys):
        assert main(["report", str(QUBIT)]) == 0
        out = capsys.readouterr().out
        assert "magnitude_A,magnitude_B" in out
        assert "# complete_decoherence: false" in out

    def test_runner_validation_failure_exit_code(self, capsys):
        # decoherence sweep over a scenario with no sweep block
        assert main(["sweep", str(CLOCKED)]) == 2
        assert capsys.readouterr().err.startswith("E_VALIDATION:")

    @pytest.mark.parametrize("path, command, edit, issue", [
        (CLOCKED, "clock-recovery",
         ("}\nobservable", "}\nsweep {\n  variable t_A\n  start 3.0\n  stop 3.1\n"
          "  steps 2\n}\nobservable"),
         "kernel supports no pointer time inside the readout window"),
        (PEARLE, "pearle-compare", ("start 0.5", "start -1.0"),
         "collapse evolution needs t >= 0"),
    ], ids=["clock-window-unsupported", "pearle-negative-start"])
    def test_runner_guard_exits_2_with_its_issue(
        self, tmp_path, capsys, path, command, edit, issue
    ):
        text = path.read_text()
        assert edit[0] in text
        bad = tmp_path / "bad.scn"
        bad.write_text(text.replace(*edit))
        assert main([command, str(bad)]) == 2
        assert capsys.readouterr().err == (
            f"E_VALIDATION: 1 validation issue(s):\n  - {issue}\n"
        )

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # a pointer time with weight below the conditioning threshold is
        # supported on paper but has no usable probability mass
        text = CLOCKED.read_text().replace("0.4 2", "0.4 1e-13")
        bad = tmp_path / "starved.scn"
        bad.write_text(text)
        assert main(["clock-recovery", str(bad)]) == 3
        assert capsys.readouterr().err.startswith("E_NUMERIC:")

    def test_numeric_failure_names_its_readout(self, tmp_path, capsys):
        bad = tmp_path / "starved.scn"
        bad.write_text(CLOCKED.read_text().replace("0.4 2", "0.4 1e-13"))
        assert main(["clock-recovery", str(bad)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("E_NUMERIC: at readout t = 0.4: clock reading index 1 ")

    def test_composite_over_cap_exits_2(self, tmp_path, capsys):
        # each factor is within the cap; their product 65 * 64 is not
        spectrum = " ".join(str(k) for k in range(65))
        text = CLOCKED.read_text().replace("dimension 2", "dimension 65")
        text = text.replace("spectrum 0.0 1.0", f"spectrum {spectrum}")
        text = text.replace("dimension 8", "dimension 64")
        bad = tmp_path / "over_cap.scn"
        bad.write_text(text.replace("preset pauli_x", "preset number_op"))
        assert main(["validate", str(bad)]) == 0
        capsys.readouterr()
        assert main(["clock-recovery", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION: ")
        assert "4160 exceeds cap 4096" in err

    def test_continuous_clock_kernel_names_what_a_scenario_can_use(self, tmp_path, capsys):
        text = CLOCKED.read_text()
        start, stop = text.index("kernel {"), text.index("clock {")
        kernel = "kernel {\n  kind gaussian\n  lambda 0.1\n  t_b 1.2\n}\n"
        bad = tmp_path / "gaussian_clock.scn"
        bad.write_text(text[:start] + kernel + text[stop:])
        assert main(["clock-recovery", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION: gaussian kernel has continuous support")
        assert "a delta kernel at a pointer time or a tabulated kernel" in err

    def test_gaps_alike_to_six_digits_get_their_own_columns(self, tmp_path, capsys):
        assert main(["sweep", str(_alike_gaps(tmp_path))]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        gaps = {"dephase_gap_1.0": 1.0, "dephase_gap_1.0000001": 1.0000001,
                "dephase_gap_2": 2.0000001}
        assert header[6:] == list(gaps)
        table = np.array([row.split(",") for row in lines[1:]], dtype=float)
        for k, gap in enumerate(gaps.values()):
            np.testing.assert_allclose(
                table[:, 6 + k], np.exp(-0.1 * table[:, 0] * gap**2 / 2), atol=1e-12
            )

    def test_oversized_sweep_exits_2_before_any_point(self, tmp_path, capsys, monkeypatch):
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        monkeypatch.setattr(scenario_module, "_energy_frame", no_point)
        path = tmp_path / "wide.scn"
        path.write_text(wide_sweep())
        assert main(["sweep", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("E_VALIDATION: ")
        assert "17970600 cells" in err and "limit of 16777216" in err

    def test_nodes_flag_respected(self, capsys):
        assert main(["pearle-compare", str(PEARLE), "--nodes", "16"]) == 0
        assert "# nodes: 16" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, path",
        [("sweep", QUBIT), ("clock-recovery", CLOCKED), ("report", QUBIT)],
    )
    def test_nodes_line_only_where_quadrature_ran(self, command, path, capsys):
        assert main([command, str(path)]) == 0
        assert "# nodes:" not in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nodes_below_one_exit_2(self, value, capsys):
        assert main(["pearle-compare", str(PEARLE), "--nodes", value]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"E_VALIDATION: the collapse engine needs --nodes >= 1, got {value}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_threshold_must_be_finite_and_non_negative(self, value, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["report", str(QUBIT), "--threshold", value, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("E_VALIDATION: --threshold ")
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("table", [
        scenario_module.ResultTable({"a": np.array([0.5, np.nan])}),
        scenario_module.ResultTable({"a": [1.0, 2.0], "b": [1.0]}),
        scenario_module.ResultTable(
            {"a": [1.0, 2.0]}, blocks={("g", "h"): np.array([[1.0, np.inf], [2.0, 3.0]])}
        ),
        scenario_module.ResultTable(
            {"a": np.zeros(3)}, blocks={("g", "h"): np.ones((3, 1))}
        ),
    ], ids=["non-finite", "ragged", "non-finite-block", "block-shape"])
    def test_failing_table_leaves_no_out_file(self, table, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(_RUNNERS, "sweep", lambda scn: table)
        out = tmp_path / "out.csv"
        assert main(["sweep", str(QUBIT), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("E_VALIDATION: ")
        assert not out.exists()


def _whole_csv(table) -> str:
    """The CSV as formatted before it was streamed: every cell at once, one
    column at a time."""
    columns = {name: np.asarray(col) for name, col in table.columns.items()}
    for names, block in table.blocks.items():
        columns.update(zip(names, block.T))
    cells = [map(str if col.dtype.kind in "iu" else repr, col.tolist())
             for col in columns.values()]
    lines = [f"# {key}: {val}" for key, val in table.metadata.items()]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*cells)))
    lines.extend(f"# {key}: {val}" for key, val in table.footer.items())
    return "\n".join(lines) + "\n"


STREAMED = [*GOLDEN_CASES, ("report", CLOCKED), ("sweep", None)]


@pytest.mark.parametrize("cells", [scenario_module._CSV_CELLS, 5])
@pytest.mark.parametrize(
    "command, path", STREAMED,
    ids=[f"{c}-{p.stem if p else 'alike-gaps'}" for c, p in STREAMED],
)
def test_streamed_csv_matches_the_whole_table(command, path, cells, tmp_path, monkeypatch):
    # 5 cells per write: every table goes out in many pieces, a sweep row at a time
    monkeypatch.setattr(scenario_module, "_CSV_CELLS", cells)
    path = scenario_file(path, tmp_path) if path else _alike_gaps(tmp_path)
    out = tmp_path / "out.csv"
    assert main([command, str(path), "--out", str(out)]) == 0
    scn = scenario_module.parse_scenario(path.read_text())
    table = _RUNNERS[command](scn)
    assert out.read_bytes() == table.to_csv().encode() == _whole_csv(table).encode()


COMMAND_FILES = {
    "validate": QUBIT,
    "sweep": QUBIT,
    "clock-recovery": CLOCKED,
    "pearle-compare": PEARLE,
    "report": QUBIT,
}
OPTION_ARGS = {"nodes": ["--nodes", "16"], "threshold": ["--threshold", "0.3"]}


@pytest.mark.parametrize("command", list(COMMAND_FILES))
def test_options_are_the_runner_keywords(command, capsys):
    subparsers = next(
        a for a in build_parser()._actions if a.dest == "command"
    ).choices
    options = {
        a.dest for a in subparsers[command]._actions
        if a.option_strings and a.dest not in ("help", "seed", "out")
    }
    runner = _RUNNERS.get(command, lambda scn: None)  # validate runs nothing
    keywords = {
        name for name, p in inspect.signature(runner).parameters.items()
        if p.kind is p.KEYWORD_ONLY
    }
    assert options == keywords
    path = str(COMMAND_FILES[command])
    for name, args in OPTION_ARGS.items():
        if name not in options:
            with pytest.raises(SystemExit) as exc:
                main([command, path, *args])
            assert exc.value.code == 2
    assert main([command, path]) == 0
    has_threshold = "# threshold: 1e-06" in capsys.readouterr().out
    assert has_threshold == (command == "report")


@pytest.mark.parametrize("command", list(COMMAND_FILES))
def test_each_command_pays_its_pinned_cubic_work(command, monkeypatch):
    """The O(d^3) calls a run makes: eigh once, for H; cholesky once per state
    certified, which in pearle-compare is also each sweep point with t > 0."""
    path = COMMAND_FILES[command]
    cholesky = {"validate": 1, "sweep": 2, "clock-recovery": 2, "report": 1}.get(command)
    if command == "pearle-compare":
        sweep = scenario_module.parse_scenario(path.read_text()).sweep
        cholesky = 2 + int(np.count_nonzero(sweep.values() > 0))
    calls = dict.fromkeys(("eigh", "cholesky"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert main([command, str(path)]) == 0
    assert calls == {"eigh": 1, "cholesky": cholesky}


def test_report_threshold_reaches_output(capsys):
    assert main(["report", str(QUBIT), "--threshold", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "# threshold: 0.5" in out
    assert "# complete_decoherence: true" in out


def _validate(path) -> tuple[int, str]:
    """Exit code and stderr of ``relatime validate path``."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["validate", str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "case",
    [
        "dimension_overflow",
        "dimension_nan",
        "clock_dimension_overflow",
        "steps_overflow",
        "sweep_start_nan",
        "spectrum_infinite",
        "junk_after_observable_preset",
        "junk_after_kernel_kind",
        "junk_after_sweep_variable",
        "junk_after_state_preset",
        "basis_state_index_not_integer",
        "basis_state_index_fractional",
        "block_in_state_block",
        "block_in_hamiltonian_block",
        "block_in_matrix_block",
        "block_in_table_block",
        "dimension_over_cap",
        "clock_dimension_far_over_cap",
        "steps_far_over_cap",
    ],
)
def test_defective_input_exits_2(case, tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text(PARSE_CASES[case])
    code, err = _validate(path)
    assert code == 2
    assert err.startswith(("E_PARSE: line ", "E_VALIDATION:")), err


def test_overflowing_hamiltonian_exits_2(tmp_path):
    # finite entries whose eigenvalues overflow: refused as a validation issue
    path = tmp_path / "overflow.scn"
    path.write_text(MINIMAL.replace(
        "  spectrum 0.0 1.0\n",
        "  hamiltonian {\n    row 1e308 0 1e308 0\n    row 1e308 0 1e308 0\n  }\n",
    ))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _validate(path)
    assert code == 2
    assert err == (
        "E_VALIDATION: 1 validation issue(s):\n"
        "  - system hamiltonian: spectrum is not finite: [0..inf]\n"
    )


DENSE_MINIMAL = MINIMAL.replace(  # the same qubit, with H = pauli_x as a matrix block
    "  spectrum 0.0 1.0\n", "  hamiltonian {\n    row 0 0 1 0\n    row 1 0 0 0\n  }\n",
)


def test_eigensolver_failure_exits_2(tmp_path, monkeypatch):
    # a dense and a spectrum-declared H name the same field
    def no_convergence(arr):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    path = tmp_path / "h.scn"
    for text in (DENSE_MINIMAL, MINIMAL):
        path.write_text(text)
        assert _validate(path) == (2, (
            "E_VALIDATION: 1 validation issue(s):\n"
            "  - system hamiltonian: eigensolver did not converge: "
            "Eigenvalues did not converge\n"
        ))


def _sweep_dense_d8(tmp_path, capsys):
    """Exit code and stderr of a dense sweep, and whether it left its --out file."""
    out = tmp_path / "out.csv"
    code = main(["sweep", str(GOLDEN_DIR / "dense_d8.scn"), "--out", str(out)])
    return code, capsys.readouterr().err, out.exists()


def test_out_of_memory_while_parsing_exits_3(tmp_path, monkeypatch, capsys):
    # running out of memory is a numerical failure, and leaves no --out file
    def exhausted(arr):
        raise MemoryError("no room for the eigensystem")

    monkeypatch.setattr(np.linalg, "eigh", exhausted)
    assert _sweep_dense_d8(tmp_path, capsys) == (
        3, "E_NUMERIC: out of memory: no room for the eigensystem\n", False
    )


def test_out_of_memory_without_a_message_is_named(tmp_path, monkeypatch, capsys):
    # numpy can raise a bare MemoryError(); the line still says what ran out
    def exhausted(arr):
        raise MemoryError()

    monkeypatch.setattr(np.linalg, "eigh", exhausted)
    assert _sweep_dense_d8(tmp_path, capsys) == (
        3, "E_NUMERIC: out of memory: MemoryError\n", False
    )


def test_out_of_memory_while_running_exits_3(tmp_path, monkeypatch, capsys):
    # numpy's own _ArrayMemoryError, raised inside the runner, likewise
    error = _ArrayMemoryError((8, 8), np.dtype(np.float64))

    def exhausted(self, omega):
        raise error

    monkeypatch.setattr(GaussianKernel, "_envelope", exhausted)
    assert _sweep_dense_d8(tmp_path, capsys) == (
        3, f"E_NUMERIC: out of memory: {error}\n", False
    )


def test_wrong_eigensystem_exits_2(tmp_path, monkeypatch):
    # eigh returning its eigenvectors swapped: the probe refuses the result
    eigh = np.linalg.eigh

    def swapped(arr):
        energies, basis = eigh(arr)
        return energies, basis[:, ::-1]

    monkeypatch.setattr(np.linalg, "eigh", swapped)
    path = tmp_path / "dense.scn"
    path.write_text(DENSE_MINIMAL)
    code, err = _validate(path)
    assert code == 2
    header, bullet = err.splitlines()
    assert header == "E_VALIDATION: 1 validation issue(s):"
    assert re.fullmatch(
        r"  - system hamiltonian: spectral reconstruction error \S+ exceeds budget", bullet
    )


@pytest.mark.parametrize(
    "case", [case for case, outcome in PARSE_EXPECTED.items() if outcome[0] == "issues"]
)
def test_issue_count_matches_bullets(case, tmp_path):
    path = tmp_path / "bad.scn"
    path.write_text(PARSE_CASES[case])
    code, err = _validate(path)
    header, *bullets = err.splitlines()
    assert code == 2
    assert header == f"E_VALIDATION: {len(bullets)} validation issue(s):"
    assert all(line.startswith("  - ") for line in bullets)


FUZZ_VALUES = ("inf", "-inf", "nan", "1e400", "-1", "0", "4097", "1000000000", "junk")
FUZZ_BLOCKS = ("x", "table", "matrix", "state", "hamiltonian", "clock", "sweep")
MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(["replace", "append"]), st.sampled_from(FUZZ_VALUES)),
    st.tuples(st.just("insert"), st.sampled_from(FUZZ_BLOCKS)),
)


def _uncommented(path) -> list[str]:
    lines = (line.split("#", 1)[0].rstrip() for line in path.read_text().splitlines())
    return [line for line in lines if line.strip()]


FUZZ_BASES = [_uncommented(path) for path in (QUBIT, CLOCKED, PEARLE)]


def mutate(base: int, mutation, where: int, which: int) -> str:
    """One bundled scenario with one token replaced, one token appended to
    a line, or one empty block inserted before a line."""
    kind, value = mutation
    lines = list(FUZZ_BASES[base])
    k = where % len(lines)
    if kind == "replace":
        tokens = lines[k].split()
        tokens[which % len(tokens)] = value
        lines[k] = " ".join(tokens)
    elif kind == "append":
        lines[k] += " " + value
    else:
        lines[k:k] = [value + " {", "}"]
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@example(base=0, mutation=("replace", "1e400"), where=1, which=1)
@given(
    base=st.integers(0, len(FUZZ_BASES) - 1),
    mutation=MUTATIONS,
    where=st.integers(0, 40),
    which=st.integers(0, 3),
)
def test_mutated_scenarios_fail_cleanly(tmp_path_factory, base, mutation, where, which):
    path = tmp_path_factory.getbasetemp() / "mutated.scn"
    path.write_text(mutate(base, mutation, where, which))
    code, err = _validate(path)
    assert code in (0, 2)
    if code == 2:
        assert err.startswith(("E_PARSE:", "E_VALIDATION:")), err


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "relatime", "validate", str(QUBIT)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("OK:")

    def test_validate_leaves_numpy_random_unimported(self):
        # only the random state presets draw numbers; importing numpy.random
        # costs every other run time and memory
        code = (
            "import sys; from relatime.cli import main; "
            f"main(['validate', {str(QUBIT)!r}]); "
            "print('numpy.random' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_sweep_loads_no_openssl_difflib_or_numpy_random(self, tmp_path):
        # the digest hashes with the built-in SHA-256, difflib serves only a
        # refused name, only the random state presets draw numbers, the
        # sweep's distinct gaps come without np.unique, which loads numpy.ma,
        # and records are NamedTuples, which generate no code at import
        code = (
            "import runpy, sys\n"
            "sys.argv = ['relatime', 'sweep', sys.argv[1], '--out', sys.argv[2]]\n"
            "try:\n    runpy.run_module('relatime', run_name='__main__')\n"
            "except SystemExit as exc:\n    assert exc.code == 0, exc.code\n"
            "print(sorted({'_hashlib', 'dataclasses', 'difflib', 'numpy.ma',\n"
            "              'numpy.random'} & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code, str(QUBIT), str(tmp_path / "out.csv")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "out.csv").read_text().startswith("# generator: relatime")

    def test_module_invocation_failure(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("system {\n")
        proc = subprocess.run(
            [sys.executable, "-m", "relatime", "validate", str(bad)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("E_PARSE:")


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
BUNDLED_JOBS = [  # every command that runs on a bundled scenario
    ("sweep", QUBIT), ("pearle-compare", QUBIT), ("report", QUBIT),
    ("clock-recovery", CLOCKED), ("report", CLOCKED),
    ("sweep", PEARLE), ("pearle-compare", PEARLE), ("report", PEARLE),
]
STARVED = CLOCKED.read_text().replace("0.4 2", "0.4 1e-13")  # exits 3


def _relatime(*args, stdout=subprocess.PIPE, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "relatime", *map(str, args)],
                          stdout=stdout, stderr=subprocess.PIPE, **kwargs)


class TestProcessExit:
    """The process entry freezes the collector after ``main`` returns; ``main``
    run in-process leaves it alone."""

    @pytest.mark.parametrize("command", list(COMMAND_FILES))
    def test_main_in_process_freezes_nothing(self, command, capsys):
        before = gc.get_freeze_count()
        assert main([command, str(COMMAND_FILES[command])]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("command, text, code", [
        ("validate", QUBIT.read_text(), 0),
        ("validate", "system {\n", 2),
        ("clock-recovery", STARVED, 3),
    ], ids=["ok", "invalid", "numeric"])
    def test_module_exits_frozen_with_mains_code(self, command, text, code, tmp_path):
        path = tmp_path / "in.scn"
        path.write_text(text)
        script = (
            "import gc, runpy, sys\n"
            "sys.argv = ['relatime', *sys.argv[1:]]\n"
            "try:\n    runpy.run_module('relatime', run_name='__main__')\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, command, str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"{code} True"

    @pytest.mark.parametrize(
        "command, path", BUNDLED_JOBS, ids=[f"{c}-{p.stem}" for c, p in BUNDLED_JOBS]
    )
    def test_stdout_loses_nothing_at_exit(self, command, path, tmp_path):
        out = tmp_path / "out.csv"
        assert _relatime(command, path, "--out", out).returncode == 0
        printed = _relatime(command, path)
        assert printed.returncode == 0
        assert printed.stdout == out.read_bytes()

    def test_script_runs_what_the_module_runs(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["relatime"]
        module, _, name = target.partition(":")
        calls = []
        monkeypatch.setattr(importlib.import_module(module), name,
                            lambda: calls.append(name))
        runpy.run_module("relatime", run_name="__main__")
        assert calls == [name]


class TestOutputErrors:
    """Output that cannot be written is E_VALIDATION, exit 2: no traceback, no
    error at the interpreter's exit flush, no --out file."""

    @staticmethod
    def _refused(code: int, err: bytes):
        err = err.decode()
        assert code == 2, err
        assert err.startswith("E_VALIDATION: [Errno "), err
        assert "Traceback" not in err and "Exception ignored" not in err

    def test_missing_out_directory(self, tmp_path):
        out = tmp_path / "missing" / "out.csv"
        proc = _relatime("sweep", QUBIT, "--out", out)
        self._refused(proc.returncode, proc.stderr)
        assert not out.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_full_stdout(self, command, unbuffered, tmp_path):
        env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
        with open("/dev/full", "wb") as full:
            proc = _relatime(command, QUBIT, stdout=full, env=env, cwd=tmp_path)
        self._refused(proc.returncode, proc.stderr)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_reader_closes_the_pipe(self, unbuffered, tmp_path):
        path = tmp_path / "dense.scn"
        path.write_text(_dense_sweep(96))  # its report outgrows a pipe's buffer
        with open(tmp_path / "err", "w+b") as err:
            proc = subprocess.Popen(
                [sys.executable, "-m", "relatime", "report", str(path)],
                stdout=subprocess.PIPE, stderr=err,
                env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
            )
            assert proc.stdout.readline().startswith(b"# generator: relatime")
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err.seek(0)
            err = err.read()
        self._refused(code, err)
        assert b"Broken pipe" in err

    @pytest.mark.parametrize("error, code, prefix", [
        (OSError(errno.ENOSPC, "No space left on device"), 2, "E_VALIDATION: [Errno 28]"),
        (MemoryError("no room for the row"), 3, "E_NUMERIC: out of memory:"),
    ], ids=["disk-full", "out-of-memory"])
    def test_partly_written_out_file_is_removed(self, error, code, prefix, tmp_path,
                                                monkeypatch, capsys):
        def failing(table, stream):
            stream.write("# generator: relatime\n")
            stream.flush()
            raise error

        monkeypatch.setattr(scenario_module.ResultTable, "write_csv", failing)
        out = tmp_path / "out.csv"
        assert main(["sweep", str(QUBIT), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(prefix)
        assert not out.exists()

    def test_a_linked_out_file_is_not_removed(self, tmp_path, monkeypatch, capsys):
        # only a regular file the path names itself goes: never a link (such
        # as /dev/stdout) or a device (such as /dev/full)
        def failing(table, stream):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(scenario_module.ResultTable, "write_csv", failing)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["sweep", str(QUBIT), "--out", str(link)]) == 2
        assert capsys.readouterr().err.startswith("E_VALIDATION: ")
        assert link.is_symlink() and target.exists()
