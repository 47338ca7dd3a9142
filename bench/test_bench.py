"""The benchmark's own tests, on the d = 8 / D = 16 workload variants.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import traced_job  # noqa: E402
import workloads  # noqa: E402

TINY = ("sweep-tiny", "pearle-tiny", "clock-tiny", "report-tiny")


def _cli_csv(tmp_path: Path, scn: workloads.Scenario) -> str:
    from relatime.cli import main

    path, out = tmp_path / "w.scn", tmp_path / "out.csv"
    path.write_text(scn.text)
    assert main(scn.job_args(str(path), str(out))) == 0
    return out.read_text()


def _corrupt(csv: str, column: str, row: int = 0, delta: float = 1e-6) -> str:
    """Shift one numeric cell, or a '# key: value' footer line, by delta."""
    lines = csv.splitlines()
    if column.startswith("# "):
        k = next(k for k, line in enumerate(lines) if line.startswith(column))
        key, _, value = lines[k].partition(": ")
        lines[k] = f"{key}: {float(value) + delta!r}"
        return "\n".join(lines) + "\n"
    header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header].split(",").index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_generation_is_seeded(name):
    a = workloads.generate(name, 7)
    assert a.text == workloads.generate(name, 7).text
    assert a.text != workloads.generate(name, 8).text


@pytest.mark.parametrize("name", TINY)
def test_cli_output_passes_its_check(tmp_path, name):
    scn = workloads.generate(name, 3)
    assert workloads.check_output(scn, _cli_csv(tmp_path, scn)) == []


CORRUPTIONS = [
    ("sweep-tiny", "dephase_gap_0.142857", 2),
    ("sweep-tiny", "expect_B", 1),
    ("sweep-tiny", "purity_B", 4),
    ("sweep-tiny", "max_offdiag", 0),
    ("pearle-tiny", "maxnorm_distance", 3),
    ("pearle-tiny", "offdiag_relational", 0),
    ("clock-tiny", "alice_value", 5),
    ("clock-tiny", "bob_value", 2),
    ("clock-tiny", "# max_abs_difference", 0),
    ("report-tiny", "magnitude_A", 9),
    ("report-tiny", "magnitude_B", 27),
    ("report-tiny", "energy_j", 3),
]


@pytest.mark.parametrize("name,column,row", CORRUPTIONS)
def test_each_check_fires_on_a_corrupted_csv(tmp_path, name, column, row):
    scn = workloads.generate(name, 3)
    bad = _corrupt(_cli_csv(tmp_path, scn), column, row)
    assert workloads.check_output(scn, bad) != []


@pytest.mark.parametrize("name", TINY)
def test_a_missing_row_fails_the_check(tmp_path, name):
    scn = workloads.generate(name, 3)
    lines = _cli_csv(tmp_path, scn).splitlines(keepends=True)
    last_row = max(k for k, line in enumerate(lines) if not line.startswith("#"))
    del lines[last_row]
    assert workloads.check_output(scn, "".join(lines)) != []


def test_a_csv_that_differs_between_jobs_fails(tmp_path):
    scn = workloads.generate("sweep-tiny", 3)
    bench_run = run.Run(scn, tmp_path)
    for text in ("a,b\n1,2\n", "a,b\n1,2\n", "a,b\n1,3\n"):
        bench_run.csv_path.write_text(text)
        bench_run._same_csv("job")
    assert bench_run.failed == 1 and bench_run.matching == 2


def _traced(tmp_path: Path, scn: workloads.Scenario, job: int) -> dict:
    path, out, spans = tmp_path / "w.scn", tmp_path / "o.csv", tmp_path / "s.json"
    path.write_text(scn.text)
    argv = [str(spans), str(job), "--", *scn.job_args(str(path), str(out))]
    assert traced_job.main(argv) == 0
    return json.loads(spans.read_text())


def test_traced_jobs_nest_restore_and_cover_every_span_name(tmp_path):
    from relatime import cli, qmat, scenario

    runner, init = cli._RUNNERS["sweep"], qmat.DensityMatrix.__init__
    seen = set()
    for job, name in enumerate(TINY):
        spans = _traced(tmp_path, workloads.generate(name, 3), job)["spans"]
        assert traced_job.check_spans(spans) == []
        assert {s[4] for s in spans} == {job}
        roots = [s for s in spans if s[3] == -1]
        assert [s[0] for s in roots] == ["cli.main"]
        wall = roots[0][2] - roots[0][1]
        assert sum(traced_job.self_times(spans).values()) <= wall
        seen |= set(traced_job.call_counts(spans))
    assert seen == set(traced_job.SPAN_NAMES)
    assert cli._RUNNERS["sweep"] is runner is scenario.run_decoherence_sweep
    assert qmat.DensityMatrix.__init__ is init


def test_traced_sweep_counts(tmp_path):
    scn = workloads.generate("sweep-tiny", 3)
    counts = traced_job.call_counts(_traced(tmp_path, scn, 1)["spans"])
    steps, gaps = scn.shape.steps, scn.shape.dim - 1
    assert counts["qmat.DensityMatrix"] == 1 + 2 * steps
    assert counts["kernels.chi"] == steps * (gaps + 2)


def test_check_spans_rejects_escaping_children_and_excess_self_time():
    nested = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1]]
    assert traced_job.check_spans(nested) == []
    assert traced_job.self_times(nested) == {"a": 7.0, "b": 3.0}
    escaping = [["a", 0.0, 10.0, -1, 1], ["b", 8.0, 12.0, 0, 1]]
    assert traced_job.check_spans(escaping) != []
    other_job = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 2.0, 0, 2]]
    assert traced_job.check_spans(other_job) != []
    overlapping = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 8.0, 0, 1], ["c", 2.0, 9.0, 0, 1]]
    assert traced_job.check_spans(overlapping) != []


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric(trace):
    done = _bench("--workload", "clock-tiny", "--seed", "2", "--seconds", "1",
                  "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace == "1":
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["clockmodel.bob_state.calls"] == 8
        assert metrics["clockmodel.bob_state_per_readout"] == 1.0
        assert metrics["qmat.tensor.calls"] == 3 + 8 * 12
    assert not (ROOT / ".bench_work").exists()


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "sweep-tiny", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.SHAPES)
