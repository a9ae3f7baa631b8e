"""The benchmark's traced run (``perfbench/run.py --trace 1``) replaces layer
functions by attribute name; renaming or removing one breaks it. This checks
every traced name still exists where the tracer looks it up."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_function_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    targets = tracing._targets()
    assert targets
    for owner, attr, span_name, _ in targets:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} (span {span_name}) is gone"
