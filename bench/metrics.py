"""Turn timed passes and spans into the benchmark's metrics, and check repetitions."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics

from stats import TAIL_BEYOND, tail
from tracer import LAYERS, layer_totals

# Layers reported as <layer>.calls, <layer>.self_us and <layer>.share.
COUNTED_LAYERS = (
    "channels.build",
    "channels.evolve",
    "linalg.eig",
    "linalg.eigenphases",
    "discrimination.helstrom",
    "discrimination.fixed",
    "discrimination.closed",
    "probes.build",
)
OPT_DIMS = (2, 3, 4, 5)
CRITERIA = range(1, 11)


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in the order they are printed."""
    out: dict[str, str] = {}
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_us"] = "us"
        out[f"{layer}.share"] = "ratio"
    out.update(
        {
            "optimize.calls": "count",
            "optimize.call_ms": "ms",
            "optimize.evals": "count",
            "optimize.evals_per_call": "count",
        }
    )
    for d in OPT_DIMS:
        out[f"optimize.us_per_eval.d{d}"] = "us"
    out["optimize.restart_agree_ratio"] = "ratio"
    out["optimize.share"] = "ratio"
    for n in CRITERIA:
        out[f"verify.c{n}_ms"] = "ms"
    out["verify.share"] = "ratio"
    out["cli.calls"] = "count"
    out["cli.self_ms"] = "ms"
    out["cli.share"] = "ratio"
    out["check.max_abs_error"] = "prob"
    out["trace.overhead_ratio"] = "ratio"
    return out


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def pass_layers(spans: list[list], wall: float) -> dict:
    """Per-layer numbers of one traced pass: counts exact, times in seconds."""
    totals = layer_totals(spans)
    empty = {"calls": 0, "self_s": 0.0, "entry_s": 0.0, "metas": []}
    out = {
        layer: {"calls": totals.get(layer, empty)["calls"], "self_s": totals.get(layer, empty)["self_s"]}
        for layer in LAYERS
    }
    opt = totals.get("optimize", empty)
    by_d: dict[int, list[float]] = {}
    evals = restarts = agree = 0
    for self_s, meta in opt["metas"]:
        evals += meta["evals"]
        restarts += meta["restarts"]
        agree += meta["agree"]
        row = by_d.setdefault(meta["d"], [0.0, 0])
        row[0] += self_s
        row[1] += meta["evals"]
    out["optimize"].update(
        entry_s=opt["entry_s"], evals=evals, restarts=restarts, agree=agree, by_d=by_d
    )
    out["wall"] = wall
    return out


def layer_metrics(traced: list[dict], untraced_wall: float, criterion_ms: dict[int, float]) -> dict:
    """Median over traced passes of each per-layer metric."""
    rows = []
    for p in traced:
        lay, wall = p["layers"], p["wall"]
        row = {}
        for layer in COUNTED_LAYERS:
            row[f"{layer}.calls"] = lay[layer]["calls"]
            row[f"{layer}.self_us"] = lay[layer]["self_s"] * 1e6
            row[f"{layer}.share"] = lay[layer]["self_s"] / wall
        opt = lay["optimize"]
        calls = opt["calls"]
        row["optimize.calls"] = calls
        row["optimize.call_ms"] = opt["entry_s"] * 1e3 / calls if calls else 0.0
        row["optimize.evals"] = opt["evals"]
        row["optimize.evals_per_call"] = opt["evals"] / calls if calls else 0.0
        for d in OPT_DIMS:
            self_s, evals = opt["by_d"].get(d, (0.0, 0))
            row[f"optimize.us_per_eval.d{d}"] = self_s * 1e6 / evals if evals else 0.0
        row["optimize.restart_agree_ratio"] = opt["agree"] / opt["restarts"] if opt["restarts"] else 0.0
        row["optimize.share"] = opt["self_s"] / wall
        row["verify.share"] = lay["verify"]["self_s"] / wall
        row["cli.calls"] = lay["cli"]["calls"]
        row["cli.self_ms"] = lay["cli"]["self_s"] * 1e3
        row["cli.share"] = lay["cli"]["self_s"] / wall
        row["trace.overhead_ratio"] = wall / untraced_wall
        rows.append(row)
    # Counts repeat exactly (checked in summarize); times are medians.
    out = {
        name: rows[0][name] if unit == "count" else statistics.median(r[name] for r in rows)
        for name, unit in per_layer_units().items()
        if name in rows[0]
    }
    for n in CRITERIA:
        out[f"verify.c{n}_ms"] = criterion_ms.get(n, 0.0)
    return out


def layer_counts(p: dict) -> dict:
    """The machine-independent part of one traced pass."""
    lay = p["layers"]
    counts = {layer: lay[layer]["calls"] for layer in LAYERS}
    counts["optimize.evals"] = lay["optimize"]["evals"]
    counts["optimize.agree"] = lay["optimize"]["agree"]
    return counts


class Tally:
    """Checks each pass's outcomes as it finishes and keeps only the totals.

    Nothing per unit is kept after the first pass, so the workload process
    does not grow with the number of passes (``peak_rss_mb`` measures it).
    """

    def __init__(self, work):
        self.work = work
        self.first: list[str] | None = None  # unit digests of the first pass
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.max_abs_error = 0.0
        self.pass_set: list[str] = []
        self.checks = 0
        self.passes = 0

    def add(self, outcomes: list) -> None:
        k = self.passes
        self.passes += 1
        if self.first is None:
            self.first = [o.digest for o in outcomes]
            self.pass_set = [i for o in outcomes for i in o.passed_ids]
            self.checks = sum(o.attempted for o in outcomes)
        for unit, outcome, digest in zip(self.work.units, outcomes, self.first):
            problems = list(outcome.failures)
            if outcome.digest != digest:
                problems.append("output differs from the first repetition")
            self.attempted += outcome.attempted
            self.failed += min(len(problems), outcome.attempted)
            self.max_abs_error = max([self.max_abs_error, *outcome.errors])
            if len(self.failures) < 20:
                self.failures.extend(f"pass {k} {self.work.label(unit)}: {m}" for m in problems)


def summarize(tally: Tally, passes: list[dict]) -> dict:
    """Reduce the checked passes to metrics."""
    work = tally.work
    summary: dict = {"attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures}
    if work.name == "verify":
        summary["pass_set"] = tally.pass_set
        summary["checks"] = f"{len(tally.pass_set)}/{tally.checks}"
    max_abs_error = tally.max_abs_error
    digest = hashlib.sha256("".join(tally.first).encode()).hexdigest()[:16]
    summary["fingerprint"] = {"outputs": digest, "max_abs_error": max_abs_error}

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    # Latencies come from a fixed number of passes, so that a faster program,
    # which fits more passes into the run, does not shift their order statistics.
    measured = untraced[: work.MEASURED_PASSES]
    latencies = [t for p in measured for t in p["latencies"]]
    wall = statistics.median(p["wall"] for p in untraced)
    summary["e2e"] = {
        "wall_s": wall,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_samples": len(latencies),
        "fail_ratio": tally.failed / tally.attempted,
        "max_abs_error": max_abs_error,
    }
    if len(work.units) > TAIL_BEYOND:
        # Enough units in one pass: take each pass's tail and report the median,
        # so a single stall of the host does not set the figure.
        tails = [tail(p["latencies"]) for p in measured]
        value = statistics.median(t[0] for t in tails)
        _, pct, n = tails[0]
        basis = f"median over {len(tails)} passes of {n} samples each"
    elif len(latencies) > TAIL_BEYOND:
        value, pct, n = tail(latencies)
        basis = f"pooled over {len(measured)} passes, {n} samples"
    else:
        basis = None  # too few samples: only possible in a traced run
    if basis is not None:
        summary["e2e"].update(
            latency_tail_ms=value * 1e3, latency_tail_percentile=pct, latency_tail_basis=basis
        )
    summary["passes"] = {
        "untraced": len(untraced),
        "traced": len(traced),
        "walls_s": [p["wall"] for p in passes],
    }
    if traced:
        counts = [layer_counts(p) for p in traced]
        if any(c != counts[0] for c in counts):
            summary["failed"] += 1
            summary["failures"].append(f"layer counts differ between traced passes: {counts}")
        summary["fingerprint"]["counts"] = counts[0]
        criterion_ms = {}
        if work.name == "verify":
            for i, unit in enumerate(work.units):
                criterion_ms[unit] = statistics.median(p["latencies"][i] for p in untraced) * 1e3
        summary["layers"] = layer_metrics(traced, wall, criterion_ms)
        summary["layers"]["check.max_abs_error"] = max_abs_error
    return summary


def program_env(np) -> dict:
    """Interpreter, numpy and BLAS facts of the process that ran the workload."""
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError, AttributeError):
        env["blas"] = None
    return env
