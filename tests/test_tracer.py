"""The benchmark tracer must keep resolving every name it wraps in the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

from chandiscrim import optimize, verify
from chandiscrim.channels import make_dephasing
from chandiscrim.optimize import OptimizerOptions

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_name_resolves_and_the_optimizer_hook_reads_d(monkeypatch):
    tracing = _load_tracer(monkeypatch)
    tracer = tracing.Tracer()
    # looks every LAYERS name up with getattr: a name the package lost raises here
    instr = tracing.Instrumentation(tracer)
    wrapped = sum(len(names) for _, names in tracing.LAYERS.values())
    assert len(instr.wrappers) == wrapped

    original = optimize.optimize_single
    ch1, ch2 = make_dephasing(3, 0.9), make_dephasing(3, 0.2)
    instr.install()
    try:
        result = optimize.optimize_single(ch1, ch2, OptimizerOptions(restarts=1))
    finally:
        instr.remove()
    assert optimize.optimize_single is original
    metas = [span[4] for span in tracer.spans if span[0] == "optimize"]
    assert len(metas) == 1
    assert metas[0]["d"] == 3
    assert metas[0]["evals"] == result.optimizer_meta["evaluations"]


@pytest.mark.parametrize("number, searches, builds, eigen", [(2, 1, 2, 0), (4, 2, 2, 1)])
def test_verify_rows_call_through_the_traced_names(monkeypatch, number, searches, builds, eigen):
    # a row table holding the function objects of import time would escape these spans, and
    # the three rows of criterion 4 share one gen-dephasing closed form and its one eigen-solve
    tracing = _load_tracer(monkeypatch)
    tracer = tracing.Tracer()
    instr = tracing.Instrumentation(tracer).install()
    try:
        reports = verify.run_criterion(number)
    finally:
        instr.remove()
    assert reports and all(r.passed for r in reports)
    layers = [span[0] for span in tracer.spans]
    assert layers.count("verify") == 1
    assert layers.count("optimize") == searches
    assert layers.count("channels.build") == builds
    assert layers.count("linalg.eigenphases") == eigen
