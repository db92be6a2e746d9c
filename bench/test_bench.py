"""Tests of the benchmark's own arithmetic and instrumentation.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
from stats import spread, tail  # noqa: E402


# --- tail percentile ---------------------------------------------------------


def test_tail_keeps_ten_samples_beyond():
    samples = list(range(30, 0, -1))  # 1..30, unsorted
    value, pct, n = tail(samples)
    assert (value, n) == (20, 30)
    assert pct == pytest.approx(200.0 / 3.0)
    assert sum(s > value for s in samples) == 10


def test_tail_with_eleven_samples_is_the_minimum():
    value, pct, n = tail([5.0] + [9.0] * 10)
    assert (value, n) == (5.0, 11)
    assert pct == pytest.approx(100.0 / 11.0)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail(range(10))


def test_tail_on_large_sample_is_a_high_percentile():
    value, pct, n = tail(np.arange(1000.0))
    assert (value, pct, n) == (989.0, 99.0, 1000)


def test_spread_is_iqr_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


class _TenUnits:
    name = "fixed"
    units = list(range(10))
    MEASURED_PASSES = 4

    def label(self, unit):
        return str(unit)


def _summary_of(n_passes: int) -> dict:
    from workloads import Outcome

    work = _TenUnits()
    tally = metrics.Tally(work)
    passes = []
    for k in range(n_passes):
        tally.add([Outcome(digest=str(u)) for u in work.units])
        # Later passes are faster, as when a faster program fits more of them in.
        scale = 1.0 if k < work.MEASURED_PASSES else 0.1
        passes.append({"wall": 1.0, "latencies": [scale * (u + 1 + k / 10) for u in work.units], "traced": False})
    return metrics.summarize(tally, passes)["e2e"]


def test_latencies_come_from_the_measured_passes_only():
    four, six = _summary_of(4), _summary_of(6)
    assert four["latency_samples"] == six["latency_samples"] == 40
    assert six["latency_tail_ms"] == four["latency_tail_ms"]
    assert six["latency_p50_ms"] == four["latency_p50_ms"]
    assert four["latency_tail_percentile"] == pytest.approx(75.0)


# --- self time with nested spans ------------------------------------------


def test_self_time_subtracts_children_at_every_depth():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["a", 5.0, 9.0, 0, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 5.0, 0, None],
        ["a", 4.0, 12.0, 0, None],  # overlaps its sibling and outlives the parent
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_totals_count_nested_calls_and_entry_time_once():
    spans = [
        ["unit", 0.0, 10.0, -1, None],
        ["channels.build", 1.0, 7.0, 0, None],  # a pair constructor ...
        ["channels.build", 2.0, 3.0, 1, None],  # ... building its two channels
        ["channels.build", 4.0, 6.0, 1, None],
        ["optimize", 8.0, 9.0, 0, {"d": 2, "evals": 10, "restarts": 2, "agree": 1}],
    ]
    totals = tracing.layer_totals(spans)
    build = totals["channels.build"]
    assert build["calls"] == 3
    assert build["entry_s"] == pytest.approx(6.0)
    assert build["self_s"] == pytest.approx(6.0)
    assert totals["optimize"]["metas"] == [(pytest.approx(1.0), spans[4][4])]


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    with tracer.span("unit"):
        outer()
    layers = [(s[0], s[3]) for s in tracer.spans]
    assert layers == [("unit", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    # unit 0..7, outer 1..6, inner 2..3 and 4..5
    assert tracing.self_times(tracer.spans) == [2.0, 3.0, 1.0, 1.0]


def test_per_eval_time_is_split_by_dimension():
    spans = [
        ["unit", 0.0, 10.0, -1, None],
        ["optimize", 0.0, 2.0, 0, {"d": 2, "evals": 1000, "restarts": 4, "agree": 4}],
        ["probes.build", 0.5, 1.0, 1, None],
        ["optimize", 3.0, 9.0, 0, {"d": 5, "evals": 2000, "restarts": 4, "agree": 2}],
    ]
    lay = metrics.pass_layers(spans, wall=10.0)
    out = metrics.layer_metrics([{"layers": lay, "wall": 10.0}], 8.0, {})
    assert out["optimize.calls"] == 2
    assert out["optimize.evals"] == 3000
    assert out["optimize.us_per_eval.d2"] == pytest.approx(1.5e6 / 1000)
    assert out["optimize.us_per_eval.d5"] == pytest.approx(6e6 / 2000)
    assert out["optimize.restart_agree_ratio"] == pytest.approx(6 / 8)
    assert out["optimize.share"] == pytest.approx(0.75)
    assert out["trace.overhead_ratio"] == pytest.approx(1.25)


# --- rebinding on re-imported names -----------------------------------------


@pytest.fixture
def instrumented():
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer).install()
    try:
        yield tracer, instr
    finally:
        instr.remove()


def test_every_imported_name_is_rebound(instrumented):
    import chandiscrim
    from chandiscrim import cli, discrimination, optimize, verify

    tracer, instr = instrumented
    assert cli.optimize_single.__wrapped_layer__ == "optimize"
    assert discrimination.helstrom.__wrapped_layer__ == "discrimination.helstrom"
    assert chandiscrim.helstrom is discrimination.helstrom
    assert verify.make_depolarizing is chandiscrim.channels.make_depolarizing
    assert optimize.bloch_qubit.__wrapped_layer__ == "probes.build"
    originals = {id(o) for o, _ in instr.wrappers.values()}
    for module in instr.modules:
        leaked = [n for n, v in vars(module).items() if id(v) in originals]
        assert not leaked, f"{module.__name__} still holds unwrapped {leaked}"


def test_calls_through_imported_names_open_spans(instrumented):
    from chandiscrim import cli, probes

    tracer, _ = instrumented
    ch = cli.make_depolarizing(2, 0.9), cli.make_depolarizing(2, 0.3)
    cli.discrim_fixed_single(ch[0], ch[1], probes.basis_probe(2, 0))
    names = [s[0] for s in tracer.spans]
    assert names == [
        "channels.build",
        "channels.build",
        "probes.build",
        "discrimination.fixed",
        "channels.evolve",
        "channels.evolve",
        "discrimination.helstrom",
        "linalg.eig",
    ]


def test_remove_restores_the_originals():
    from chandiscrim import cli, discrimination

    before = (cli.optimize_single, discrimination.helstrom, cli.main)
    instr = tracing.Instrumentation(tracing.Tracer()).install()
    assert cli.optimize_single is not before[0]
    instr.remove()
    assert (cli.optimize_single, discrimination.helstrom, cli.main) == before
