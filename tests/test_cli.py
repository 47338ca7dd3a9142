import inspect
import io
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from relatime import scenario as scenario_module
from relatime.cli import _RUNNERS, build_parser, main
from conftest import SCENARIO_DIR
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

    def test_gaps_alike_to_six_digits_get_their_own_columns(self, tmp_path, capsys):
        text = (MINIMAL + SWEEP_BLOCK).replace("dimension 2", "dimension 3")
        text = text.replace("spectrum 0.0 1.0", "spectrum 0.0 1.0 2.0000001")
        path = tmp_path / "alike.scn"
        path.write_text(text.replace("preset pauli_x", "preset number_op"))
        assert main(["sweep", str(path)]) == 0
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

        monkeypatch.setattr(scenario_module, "_finish_state", no_point)
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
