"""The benchmark's tracer (bench/tracing.py) finds every function it times.

A function the tracer wraps that the program no longer has would leave
its per-layer metrics null in every traced benchmark run; this test fails
first.
"""

import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_tracer_finds_every_function_it_times(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.undo()
    assert tracer.missing == []
    metrics = tracing.layer_metrics(tracer, 1.0, 1.0, 0.0)
    assert [name for name, metric in metrics.items() if metric["value"] is None] == []
