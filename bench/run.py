"""Benchmark entry point: ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``.

Run from the root of a source checkout. It measures set-up time in fresh
interpreters, then runs the workload in one more (a single closed-loop
caller, BLAS pinned to one thread), prints every metric by name with its
unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run. The full record (environment, failures, tail
percentile, fingerprints) goes to ``bench/out/``; a later run of the same
workload and seed on the same sources must reproduce its fingerprint.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END_UNITS, per_layer_units  # noqa: E402

WORKLOADS = ("verify", "eval", "sweep")
# Set-up starts per run, half before the workload and half after it, so the
# median spans the run's whole window and a short slow phase of the host
# moves it less.
SETUP_SAMPLES = 16
DEADLINE_S = 170.0  # every run ends well inside 180 s
SETUP_RESERVE_S = 15.0  # kept for the set-up starts after the workload
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env.pop("PYTHONPATH", None)
    return env


def source_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout read from ``.git`` directly (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def measure_setup() -> float:
    """Spawn-to-ready time of a fresh interpreter importing the program (seconds)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--ready-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("the program failed to import")
    return elapsed


def run_worker(args, workdir: str, spans: Path, budget: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=budget)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_fingerprint(record: dict, path: Path) -> list[str]:
    """Compare with an earlier run of the same workload, seed and sources; then store."""
    fp = record["fingerprint"]
    problems = []
    try:
        old = json.loads(path.read_text())
    except (OSError, ValueError):
        old = None
    source = record["env"]["source_digest"] + record["env"]["bench_digest"]
    if old is not None and old.get("source") == source:
        for key in ("outputs", "max_abs_error", "counts"):
            if key in fp and key in old and fp[key] != old[key]:
                problems.append(f"{key} differs from an earlier run with the same seed")
        merged = {**old, **fp}
    else:
        merged = dict(fp)
    merged["source"] = source
    path.write_text(json.dumps(merged, indent=1))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "chandiscrim" / "__init__.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}"
    # A fixed relative path: custom-file outputs echo it, and they must repeat across runs.
    workdir = OUT / f"work-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        measure_setup()  # writes bytecode caches; not counted
        setups = [measure_setup() for _ in range(SETUP_SAMPLES // 2)]
        budget = DEADLINE_S - SETUP_RESERVE_S - (time.perf_counter() - started)
        record = run_worker(args, workdir.relative_to(ROOT).as_posix(), OUT / f"spans-{tag}.json", budget)
        setups += [measure_setup() for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["env"].update(
        git_commit=git_commit(),
        source_digest=source_digest(ROOT / "src"),
        bench_digest=source_digest(BENCH),
        cpu=cpu_model(),
        nproc=os.cpu_count(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
    )
    record["setup_samples_s"] = setups
    record["e2e"]["setup_s"] = statistics.median(setups)
    record["e2e"]["peak_rss_mb"] = record.pop("peak_rss_mb")
    problems = check_fingerprint(record, OUT / f"fingerprint-{tag}.json")
    record["failed"] += len(problems)
    record["failures"].extend(problems)

    e2e = record["e2e"]
    for key, value in record["env"].items():
        print(f"env.{key} {value}")
    print(f"passes untraced={record['passes']['untraced']} traced={record['passes']['traced']}")
    if "checks" in record:
        print(f"verify checks passed {record['checks']}")
    for name, unit in END_TO_END_UNITS.items():
        if name in e2e:
            print(f"{name} {e2e[name]:.6g} {unit}")
    if "latency_tail_percentile" in e2e:
        print(f"latency_tail_percentile {e2e['latency_tail_percentile']:.4g} % "
              f"({e2e['latency_tail_basis']})")
    print(f"fail_ratio {e2e['fail_ratio']:.6g} ratio")
    print(f"max_abs_error {e2e['max_abs_error']:.6g} prob")
    if args.trace:
        for name, unit in per_layer_units().items():
            print(f"{name} {record['layers'][name]:.6g} {unit}")
    for message in record["failures"]:
        print(f"FAILED {message}")
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    if args.trace:
        metrics = {n: {"value": record["layers"][n], "unit": u} for n, u in per_layer_units().items()}
    else:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
