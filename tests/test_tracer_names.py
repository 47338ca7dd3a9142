"""The benchmark's tracer wraps relatime's layers by name from outside the
package (``bench/traced_job.py``). Renaming or deleting a name it looks up
breaks every traced benchmark run; this test finds such a name in tier-1."""

import importlib.util
from pathlib import Path

TRACED_JOB = Path(__file__).resolve().parent.parent / "bench" / "traced_job.py"


def _traced_job():
    spec = importlib.util.spec_from_file_location("traced_job", TRACED_JOB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def test_tracer_finds_every_name_and_restores_it():
    traced_job = _traced_job()
    tracer = traced_job.Tracer(0)
    wrapped, wrap = [], tracer.wrap

    def recording(owner, key, name, measure=None):
        wrapped.append((owner, key, name, _current(owner, key)))  # a missing name raises
        wrap(owner, key, name, measure)

    tracer.wrap = recording
    try:
        traced_job.install(tracer)
        assert all(_current(o, k) is not original for o, k, _, original in wrapped)
    finally:
        tracer.restore()
    for owner, key, name, original in wrapped:
        assert _current(owner, key) is original, f"{name}: {key} not restored"
    names = {name for _, _, name, _ in wrapped}
    assert names == set(traced_job.SPAN_NAMES) - {"cli.main"}
