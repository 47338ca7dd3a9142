import subprocess
import sys

import pytest

from relatime.cli import main
from conftest import SCENARIO_DIR

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

    def test_nodes_flag_respected(self, capsys):
        assert main(["pearle-compare", str(PEARLE), "--nodes", "16"]) == 0
        assert "# nodes: 16" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command, path",
        [("sweep", QUBIT), ("clock-recovery", CLOCKED), ("report", QUBIT)],
    )
    def test_nodes_line_only_where_quadrature_ran(self, command, path, capsys):
        assert main([command, str(path), "--nodes", "16"]) == 0
        assert "# nodes:" not in capsys.readouterr().out


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "relatime", "validate", str(QUBIT)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("OK:")

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
