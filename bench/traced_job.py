"""Run one relatime CLI job in-process with a span around each layer call.

Usage::

    python bench/traced_job.py SPANS_JSON JOB_ID -- <relatime CLI arguments>

The wrappers are installed from outside the package, at the names where
each layer is called: ``from .x import y`` copies the binding into the
importing module, so wrapping the defining module alone would miss the
calls. Methods and constructors are wrapped on their class. Spans stay in
memory while the job runs; the originals are restored and the spans are
written as JSON when ``relatime.cli.main`` returns. The exit code is the
CLI's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

perf_counter = time.perf_counter


class Tracer:
    """Spans ``[name, start, end, parent, job]`` and counters for one job.

    ``parent`` is the index of the enclosing span, or -1 for a root.
    """

    def __init__(self, job: int):
        self.job = job
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, owner, key: str, name: str, measure=None) -> None:
        """Replace ``owner.key`` (or ``owner[key]``) by a spanning wrapper.

        ``measure(counters, args, result)`` runs after each call and may add
        to the counters.
        """
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                tracer._stack.pop()
            if measure is not None:
                measure(tracer.counters, args, result)
            return result

        if is_dict:
            owner[key] = wrapper
            self._undo.append(lambda: owner.__setitem__(key, original))
        else:
            setattr(owner, key, wrapper)
            self._undo.append(lambda: setattr(owner, key, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


def _count_input(counters, args, result):
    counters["scenario.parse.input_bytes"] += len(args[0].encode())


def _count_csv(counters, args, result):
    table = args[0]
    counters["scenario.csv_bytes"] += len(result.encode())
    counters["scenario.rows"] += len(next(iter(table.columns.values()), ()))


def _count_eigvalsh(counters, args, result):
    # Each DensityMatrix construction runs one eigvalsh on a dim x dim array.
    counters["qmat.DensityMatrix.dim3_sum"] += args[0].dim ** 3


def install(tracer: Tracer) -> None:
    """Wrap every layer the CLI calls (see the module docstring)."""
    from relatime import cli, clockmodel, kernels, qmat, scenario

    wrap = tracer.wrap
    wrap(cli, "parse_scenario", "scenario.parse_scenario", _count_input)
    for command in list(cli._RUNNERS):
        wrap(cli._RUNNERS, command, "scenario.runner")
    wrap(scenario.ScenarioFile, "digest", "scenario.digest")
    wrap(scenario.ResultTable, "to_csv", "scenario.to_csv", _count_csv)
    for fn in (
        "evolve_unitary",
        "evolve_relational_dephasing",
        "coherence_report",
        "evolve_pearle",
    ):
        wrap(scenario, fn, f"evolution.{fn}")
    for cls in (
        kernels.DeltaKernel,
        kernels.GaussianKernel,
        kernels.UniformKernel,
        kernels.TabulatedKernel,
    ):
        wrap(cls, "__init__", "kernels.TimeKernel")
        wrap(cls, "_chi", "kernels.chi")
    wrap(kernels.QuadratureRule, "__init__", "kernels.QuadratureRule")
    wrap(qmat.DensityMatrix, "__init__", "qmat.DensityMatrix", _count_eigvalsh)
    wrap(qmat.Hamiltonian, "__init__", "qmat.Hamiltonian")
    wrap(clockmodel, "tensor", "qmat.tensor")
    wrap(scenario, "expectation", "qmat.expectation")
    wrap(scenario, "purity", "qmat.purity")
    wrap(clockmodel.ClockSystem, "__init__", "clockmodel.ClockSystem")
    wrap(clockmodel.CompositeScenario, "__init__", "clockmodel.CompositeScenario")
    wrap(scenario, "alice_conditional", "clockmodel.alice_conditional")
    wrap(scenario, "bob_conditional", "clockmodel.bob_conditional")
    wrap(clockmodel, "bob_state", "clockmodel.bob_state")


# Every span name ``install`` creates, plus the root span around main().
SPAN_NAMES = (
    "cli.main",
    "scenario.parse_scenario",
    "scenario.runner",
    "scenario.digest",
    "scenario.to_csv",
    "evolution.evolve_unitary",
    "evolution.evolve_relational_dephasing",
    "evolution.coherence_report",
    "evolution.evolve_pearle",
    "kernels.TimeKernel",
    "kernels.chi",
    "kernels.QuadratureRule",
    "qmat.DensityMatrix",
    "qmat.Hamiltonian",
    "qmat.tensor",
    "qmat.expectation",
    "qmat.purity",
    "clockmodel.ClockSystem",
    "clockmodel.CompositeScenario",
    "clockmodel.alice_conditional",
    "clockmodel.bob_conditional",
    "clockmodel.bob_state",
)

COUNTER_NAMES = (
    "scenario.parse.input_bytes",
    "scenario.csv_bytes",
    "scenario.rows",
    "qmat.DensityMatrix.dim3_sum",
)


def check_spans(spans: list[list]) -> list[str]:
    """Structural problems: a child outside its parent, or self > wall."""
    problems = []
    for k, (name, start, end, parent, job) in enumerate(spans):
        if not start <= end:
            problems.append(f"span {k} ({name}) ends before it starts")
        if parent == -1:
            continue
        if not 0 <= parent < k:
            problems.append(f"span {k} ({name}) has parent {parent}")
            continue
        p_name, p_start, p_end, _, p_job = spans[parent]
        if p_job != job or not (p_start <= start and end <= p_end):
            problems.append(f"span {k} ({name}) escapes its parent {p_name}")
    own = _own_times(spans)
    overlapped = [spans[k][0] for k, value in enumerate(own) if value < -1e-9]
    if overlapped:
        problems.append(f"children of {overlapped[0]} overlap each other")
    roots = sum(end - start for _, start, end, parent, _ in spans if parent == -1)
    if sum(own) > roots + 1e-9:
        problems.append(
            f"self times sum to {sum(own):.6f} s, above the {roots:.6f} s "
            "the root spans cover"
        )
    return problems


def _own_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent != -1:
            own[parent] -= end - start
    return own


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-name self time: span duration minus its direct children's."""
    totals: dict[str, float] = defaultdict(float)
    for (name, *_), value in zip(spans, _own_times(spans)):
        totals[name] += value
    return dict(totals)


def call_counts(spans: list[list]) -> dict[str, int]:
    counts: dict[str, int] = defaultdict(int)
    for name, *_ in spans:
        counts[name] += 1
    return dict(counts)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, job = argv[0], int(argv[1])
    start = perf_counter()
    import relatime.cli

    import_s = perf_counter() - start
    tracer = Tracer(job)
    install(tracer)
    try:
        tracer.wrap(relatime.cli, "main", "cli.main")
        code = relatime.cli.main(argv[3:])
    finally:
        tracer.restore()
    record = {
        "job": job,
        "exit": code,
        "import_s": import_s,
        "spans": tracer.spans,
        "counters": dict(tracer.counters),
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
