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


def test_tracer_reads_the_kernel_window_from_cover_sums_arguments(monkeypatch):
    # the tracer takes a_lo, a_hi, c_lo, c_hi from cover_sums' positional arguments 2-5
    monkeypatch.syspath_prepend(BENCH)
    import tracing
    from condrisk import _backend
    from condrisk.binomial import pmf_vector

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        _backend.cover_sums(pmf_vector(20, 0.3), pmf_vector(30, 0.5), 2, 11, 5, 24, 20, 30, 1.96, 0.6)
    finally:
        tracer.undo()
    assert tracer.calls["kernel"] == 1
    assert tracer.cells == 10 * 20
