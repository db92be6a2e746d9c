"""One benchmark process: import the program, signal ready, run passes, report JSON.

Started by ``run.py`` in a fresh interpreter with BLAS pinned to one thread.
It prints ``ready`` once ``chandiscrim`` and ``chandiscrim.cli`` are imported
and warmed up (that moment ends the set-up time), then, unless
``--ready-only`` is given, generates the workload's inputs from the seed and
repeats passes over them until ``--seconds`` have elapsed and the workload's
measured passes are done. The last line of its standard output is one JSON
object with every measurement.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import chandiscrim
    import chandiscrim.cli

    # Lazy set-up a user pays once per process: the first LAPACK call.
    chandiscrim.helstrom(np.eye(2) / 2, np.diag([1.0, 0.0]))
    return {"cli": chandiscrim.cli, "verify": chandiscrim.verify, "numpy": np}


def run_pass(work, tracer=None) -> dict:
    """Time every unit (program call only), then check the outputs."""
    outputs, latencies = [], []
    start = time.perf_counter()
    for unit in work.units:
        t0 = time.perf_counter()
        if tracer is None:
            outputs.append(work.call(unit))
        else:
            with tracer.span("bench.unit"):
                outputs.append(work.call(unit))
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    outcomes = [work.check(u, o) for u, o in zip(work.units, outputs)]
    return {"wall": wall, "latencies": array("d", latencies), "outcomes": outcomes}


def _plan(traced_mode: bool):
    """Pass kinds in order: untraced only, or untraced and traced alternating."""
    while True:
        yield False
        if traced_mode:
            yield True


def _enough(passes: list[dict], traced_mode: bool, measured: int) -> bool:
    """Minimum repetitions: two of each kind traced, else the measured passes."""
    n_traced = sum(p["traced"] for p in passes)
    n_untraced = len(passes) - n_traced
    if traced_mode:
        return n_traced >= 2 and n_untraced >= 2
    return n_untraced >= measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ready-only", action="store_true", help="exit once ready")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", help="directory for generated input and output files")
    parser.add_argument("--spans", help="write the last traced pass's spans here")
    args = parser.parse_args(argv)

    api = _import_program()
    print("ready", flush=True)
    if args.ready_only:
        return 0

    import metrics
    import tracer as tracing
    import workloads

    work = workloads.WORKLOADS[args.workload](api, args.seed, Path(args.workdir))
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer) if args.trace else None

    tally = metrics.Tally(work)
    passes = []
    deadline = time.perf_counter() + args.seconds
    for traced in _plan(bool(args.trace)):
        if time.perf_counter() >= deadline and _enough(passes, bool(args.trace), work.MEASURED_PASSES):
            break
        if traced:
            instr.install()
            try:
                record = run_pass(work, tracer)
            finally:
                instr.remove()
            record["layers"] = metrics.pass_layers(tracer.spans, record["wall"])
            last_spans = tracer.spans
            tracer.reset()
        else:
            record = run_pass(work)
        record["traced"] = traced
        tally.add(record.pop("outcomes"))
        passes.append(record)

    summary = metrics.summarize(tally, passes)
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary["env"] = metrics.program_env(api["numpy"])
    if args.trace and args.spans:
        Path(args.spans).write_text(json.dumps(last_spans))
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
