"""The benchmark's own output check, over many seeds, in tier-1.

``bench/workloads.py`` writes each workload's scenario from a seed and
recomputes what a correct run prints from the generated inputs with plain
numpy. A defect that shows only on some generated scenarios, and so only in
some benchmark runs, fails here first. The module is read, not changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from relatime.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
CASES = [(name, seed)
         for name in ("sweep-tiny", "clock-tiny", "pearle-tiny", "report-tiny")
         for seed in range(1, 11)]
CASES += [(name, seed) for name in ("sweep-d256", "pearle-d128", "clock-D384")
          for seed in (1, 2, 3)]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("workloads", module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, seed", CASES, ids=[f"{n}-{s}" for n, s in CASES])
def test_output_passes_the_benchmark_check(workloads, name, seed, tmp_path, capsys):
    scn = workloads.generate(name, seed)
    path, out = tmp_path / f"{name}.scn", tmp_path / "out.csv"
    path.write_text(scn.text)
    assert main(scn.job_args(str(path), str(out))) == 0
    assert workloads.check_output(scn, out.read_text()) == []
