"""Benchmark for the relatime CLI: seeded scenarios, timed jobs, traced layers.

Run from the repository root::

    python3 bench/run.py --workload sweep-d256 --seed 1 --seconds 20 --trace 0

One run generates the workload's scenario file from ``--seed``, then
repeats rounds until ``--seconds`` are used (at least three rounds):

* ``--trace 0``: one ``relatime validate`` (set-up time) and one real
  ``python -m relatime <command> <file> --out <csv>`` job per round. Each
  is a fresh process, one at a time, with BLAS pinned to one thread.
* ``--trace 1``: one untraced job and one job under ``traced_job.py``,
  which wraps every layer from outside the package, per round.

Every CSV is checked against values recomputed with numpy
(``workloads.check_output``) and must be byte-identical to the first
job's. Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics without tracing, the per-layer metrics with it).
"""

from __future__ import annotations

import os

THREAD_PIN = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Set before numpy loads, here and (inherited) in every job: default
# OpenBLAS threading on a small machine is both slow and noisy.
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import traced_job  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_ROUNDS = 3

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

# Layers each workload is built to load; their self time is
# ``designated.self_s`` and their share of the traced job is
# ``designated.share``. Entries are span-name prefixes.
DESIGNATED = {
    "sweep": ("evolution.coherence_report",),
    "pearle-compare": ("evolution.evolve_pearle",),
    "clock-recovery": ("clockmodel.", "qmat."),
    "report": ("scenario.to_csv", "scenario.parse_scenario", "scenario.runner"),
}

# Self times reported to the final JSON: only spans that every workload
# enters, so no reported time is zero by construction. Every other span's
# self time is printed on the human-readable lines.
_SELF_TIMED = (
    "cli",
    "scenario.parse_scenario",
    "scenario.digest",
    "scenario.runner",
    "scenario.to_csv",
    "kernels",
    "qmat",
    "qmat.DensityMatrix",
    "qmat.Hamiltonian",
)
PER_LAYER = {
    "import.s": "s",
    **{f"{name}.self_s": "s" for name in _SELF_TIMED},
    "designated.self_s": "s",
    "designated.share": "ratio",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
    **{f"{name}.calls": "count" for name in traced_job.SPAN_NAMES},
    "scenario.parse.input_bytes": "B",
    "scenario.csv_bytes": "B",
    "scenario.rows": "count",
    "qmat.DensityMatrix.dim3_sum": "count",
    "clockmodel.bob_state_per_readout": "ratio",
    "qmat.validations_per_row": "ratio",
}


@dataclass
class Proc:
    wall_s: float
    code: int
    peak_rss_mb: float


def spawn(argv: list[str], log: Path) -> Proc:
    """Run one process to exit; wall time from spawn to exit, peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0)


@dataclass
class Run:
    """Everything one benchmark run measured, plus what went wrong."""

    scn: workloads.Scenario
    work: Path
    jobs: list[Proc] = field(default_factory=list)
    setups: list[Proc] = field(default_factory=list)
    records: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_csv: str | None = None
    first_csv_hash: str | None = None
    matching: int = 0  # jobs whose CSV equals the first job's
    validate_out: str | None = None

    @property
    def scenario_path(self) -> Path:
        return self.work / f"{self.scn.name}.scn"

    @property
    def csv_path(self) -> Path:
        return self.work / "out.csv"

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def _job_argv(self) -> list[str]:
        return self.scn.job_args(str(self.scenario_path), str(self.csv_path))

    def _same_csv(self, label: str) -> bool:
        text = self.csv_path.read_text(encoding="utf-8")
        self.csv_path.unlink()
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.first_csv_hash is None:
            self.first_csv, self.first_csv_hash = text, digest
        elif digest != self.first_csv_hash:
            self._fail(f"{label}: CSV differs from the first job's")
            return False
        self.matching += 1
        return True

    def validate(self) -> Proc:
        self.attempted += 1
        log = self.work / "validate.log"
        proc = spawn(
            [sys.executable, "-m", "relatime",
             *self.scn.validate_args(str(self.scenario_path))],
            log,
        )
        out = log.read_text(encoding="utf-8")
        if proc.code != 0 or not out.startswith(f"OK: dimension {self.scn.shape.dim},"):
            self._fail(f"validate exited {proc.code}: {out.strip()[-300:]}")
        elif self.validate_out is not None and out != self.validate_out:
            self._fail("validate output changed between runs")
        self.validate_out = out
        return proc

    def job(self) -> Proc:
        self.attempted += 1
        label = f"job {self.attempted}"
        log = self.work / "job.log"
        proc = spawn([sys.executable, "-m", "relatime", *self._job_argv()], log)
        if proc.code != 0:
            self._fail(f"{label} exited {proc.code}: {log.read_text()[-300:]}")
        else:
            self._same_csv(label)
        return proc

    def traced_job(self) -> None:
        self.attempted += 1
        label = f"traced job {self.attempted}"
        log = self.work / "traced.log"
        spans = self.work / "spans.json"
        argv = [
            sys.executable,
            str(BENCH / "traced_job.py"),
            str(spans),
            str(self.attempted),
            "--",
            *self._job_argv(),
        ]
        proc = spawn(argv, log)
        if proc.code != 0:
            self._fail(f"{label} exited {proc.code}: {log.read_text()[-300:]}")
            return
        record = json.loads(spans.read_text(encoding="utf-8"))
        span_problems = traced_job.check_spans(record["spans"])
        if span_problems:
            self._fail(f"{label}: {'; '.join(span_problems[:3])}")
        elif self._same_csv(label):
            record["wall_s"] = proc.wall_s
            self.records.append(record)

    def check_first_output(self) -> None:
        if self.first_csv is None:
            return
        problems = workloads.check_output(self.scn, self.first_csv)
        if problems:
            # Jobs identical to the first are wrong in the same way.
            self.failed += self.matching
            self.problems.extend(f"output check: {p}" for p in problems)


def rounds(seconds: float, steps) -> None:
    """Repeat ``steps`` until the next round would overrun ``seconds``."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        began = time.perf_counter()
        for step in steps:
            step()
        durations.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(durations) >= MIN_ROUNDS and elapsed + statistics.median(
            durations
        ) > seconds:
            return


def tail(values: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(values) * (1.0 - pct / 100.0) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return f"p{pct:g} {cut[int(pct * 10) - 1]:.6g}"
    return "no percentile has 10 samples beyond it"


def layer_metrics(record: dict, command: str) -> dict[str, float]:
    """Every per-layer figure of one traced job (superset of PER_LAYER)."""
    spans = record["spans"]
    selfs = traced_job.self_times(spans)
    calls = traced_job.call_counts(spans)
    out: dict[str, float] = {"import.s": record["import_s"]}
    for name in traced_job.SPAN_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = selfs.get(name, 0.0)
    for module in ("cli", "scenario", "evolution", "kernels", "qmat", "clockmodel"):
        out[f"{module}.self_s"] = sum(
            v for k, v in selfs.items() if k.startswith(module + ".")
        )
    counters = record["counters"]
    for name in traced_job.COUNTER_NAMES:
        out[name] = counters.get(name, 0)
    rows = out["scenario.rows"]
    readouts = rows if command == "clock-recovery" else 0
    out["clockmodel.bob_state_per_readout"] = (
        out["clockmodel.bob_state.calls"] / readouts if readouts else 0.0
    )
    out["qmat.validations_per_row"] = (
        out["qmat.DensityMatrix.calls"] / rows if rows else 0.0
    )
    designated = sum(
        v for k, v in selfs.items() if k.startswith(DESIGNATED[command])
    )
    root = sum(end - start for _, start, end, parent, _ in spans if parent == -1)
    out["designated.self_s"] = designated
    out["designated.share"] = designated / root
    out["trace.job_s"] = record["wall_s"]
    return out


def environment(scn: workloads.Scenario) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN,
        "seed": scn.seed,
        "workload": scn.name,
        "shape": asdict(scn.shape),
    }


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def samples(values: list[float]) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def measure(run: Run, seconds: float, trace: bool) -> dict[str, float]:
    scn = run.scn
    run.scenario_path.write_text(scn.text, encoding="utf-8")
    run.validate()  # warm-up: bytecode caches and page cache, not timed
    if trace:
        rounds(seconds, [
            lambda: run.jobs.append(run.job()),
            run.traced_job,
        ])
    else:
        rounds(seconds, [
            lambda: run.setups.append(run.validate()),
            lambda: run.jobs.append(run.job()),
        ])
    run.check_first_output()

    job_s = [p.wall_s for p in run.jobs]
    print(f"job_s {median(job_s):.6f} s median, {tail(job_s)} (n={len(job_s)}): "
          f"{samples(job_s)}")
    if not trace:
        setup_s = [p.wall_s for p in run.setups]
        rss = [p.peak_rss_mb for p in run.jobs]
        print(f"setup_s {median(setup_s):.6f} s median (n={len(setup_s)}): "
              f"{samples(setup_s)}")
        print(f"peak_rss_mb {median(rss):.3f} MiB median, max {max(rss):.3f} "
              f"(n={len(rss)})")
        print(f"failed_frac {run.failed / run.attempted:.6g} ratio "
              f"({run.failed} of {run.attempted} processes)")
        return {
            "job_s": median(job_s),
            "setup_s": median(setup_s),
            "peak_rss_mb": median(rss),
        }

    per_job = [layer_metrics(r, scn.shape.command) for r in run.records]
    if not per_job:
        return {}
    layers = {k: median([m[k] for m in per_job]) for k in per_job[0]}
    layers["trace.overhead_s"] = layers["trace.job_s"] - median(job_s)
    for name in sorted(layers):
        print(f"{name} {layers[name]:.6g} (median of {len(per_job)} traced jobs)")
    print(f"failed_frac {run.failed / run.attempted:.6g} ratio "
          f"({run.failed} of {run.attempted} processes)")
    return {name: layers[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "relatime" / "__init__.py").is_file():
        print(f"bench: no relatime sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    scn = workloads.generate(args.workload, args.seed)
    print(f"env {json.dumps(environment(scn), sort_keys=True)}")
    scratch = ROOT / ".bench_work"
    work = scratch / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(scn, work)
    try:
        values = measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in run.problems:
        print(f"problem: {problem}")
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": run.failed == 0 and not run.problems and len(values) == len(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]}
            for name in units
            if name in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
