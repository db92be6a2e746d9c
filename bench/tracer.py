"""In-memory span tracing at the module boundaries of ``chandiscrim``.

``Instrumentation`` wraps the public functions of each layer and rebinds every
name in the package that refers to one of them (``cli.optimize_single``,
``discrimination.helstrom``, the re-exports in ``chandiscrim/__init__`` ...),
so no call goes around its span. Nothing under ``src/`` is edited: the
wrappers live only in the tracing process and ``Instrumentation.remove``
puts the original objects back.

A span is ``[layer, start, end, parent, meta]`` with times from
``time.perf_counter`` and ``parent`` the index of the enclosing span (-1 for
a root). The benchmark opens one root span per unit of work.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# Layer name -> (module, public functions). Names follow the modules.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "channels.build": (
        "chandiscrim.channels",
        (
            "make_depolarizing",
            "make_dephasing",
            "make_generalized_dephasing",
            "make_amplitude_damping",
            "make_mixed_unitary",
            "make_erasure",
            "mixed_unitary_pair_d3",
            "mixed_unitary_pair_d6",
            "channel_from_dict",
        ),
    ),
    "channels.evolve": ("chandiscrim.channels", ("apply", "apply_on_A")),
    "linalg.eig": ("chandiscrim.linalg", ("hermitian_eig",)),
    "linalg.eigenphases": ("chandiscrim.linalg", ("unitary_eigenphases",)),
    "discrimination.helstrom": ("chandiscrim.discrimination", ("helstrom",)),
    "discrimination.fixed": (
        "chandiscrim.discrimination",
        ("discrim_fixed_single", "discrim_fixed_entangled"),
    ),
    "discrimination.closed": (
        "chandiscrim.discrimination",
        (
            "depolarizing_single_closed",
            "depolarizing_maxent_closed",
            "depolarizing_nonmax_closed",
            "dephasing_closed",
            "gen_dephasing_closed",
            "gen_dephasing_optimal_probe",
            "hull_min_distance",
            "hull_nearest_weights",
            "ad_single_closed",
            "ad_maxent_closed",
            "ad_nonmax_norm",
            "ad_nonmax_closed",
            "erasure_closed",
            "mixed_unitary_single_bound",
            "mixed_unitary_maxent_bound",
        ),
    ),
    "probes.build": (
        "chandiscrim.probes",
        (
            "bloch_qubit",
            "uniform_superposition",
            "basis_probe",
            "max_entangled",
            "nonmax_qubit",
            "schmidt_pair",
            "zeta_probe",
            "random_pure",
            "random_bipartite",
            "product_probe",
        ),
    ),
    "optimize": ("chandiscrim.optimize", ("optimize_single", "optimize_entangled")),
    "verify": ("chandiscrim.verify", ("run_criterion",)),
    "cli": ("chandiscrim.cli", ("main",)),
}

# Every module whose namespace may hold a reference to a wrapped function.
PACKAGE_MODULES = (
    "chandiscrim",
    "chandiscrim.linalg",
    "chandiscrim.probes",
    "chandiscrim.channels",
    "chandiscrim.discrimination",
    "chandiscrim.optimize",
    "chandiscrim.verify",
    "chandiscrim.cli",
)

RESTART_AGREE_ATOL = 1e-6


def optimizer_meta(args, result) -> dict:
    """Machine-independent facts about one optimizer call."""
    meta = result.optimizer_meta
    values = meta["restart_values"]
    best = max(values)
    return {
        "d": args[0].dim_in,
        "evals": meta["evaluations"],
        "restarts": len(values),
        "agree": sum(1 for v in values if best - v <= RESTART_AGREE_ATOL),
    }


META_HOOKS = {"optimize": optimizer_meta}


class Tracer:
    """Collects spans in memory; ``span`` and ``wrap`` both record into it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def reset(self):
        self.spans = []
        self._stack = []

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [layer, self.clock(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[2] = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str):
        record = self._open(layer)
        try:
            yield record
        finally:
            self._close(record)

    def wrap(self, layer: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if hook is not None:
                span[4] = hook(args, result)
            return result

        traced.__wrapped_layer__ = layer
        return traced


class Instrumentation:
    """Rebinds package names to traced wrappers; ``remove`` restores them."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.wrappers: dict[int, tuple[object, object]] = {}
        for layer, (module_name, names) in LAYERS.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                wrapper = tracer.wrap(layer, original, META_HOOKS.get(layer))
                self.wrappers[id(original)] = (original, wrapper)
        self.modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
        self.rebound: list[tuple[object, str, object]] = []

    def install(self) -> "Instrumentation":
        for module in self.modules:
            for name, value in list(vars(module).items()):
                pair = self.wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    setattr(module, name, pair[1])
                    self.rebound.append((module, name, value))
        return self

    def remove(self):
        for module, name, original in self.rebound:
            setattr(module, name, original)
        self.rebound = []


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans: list[list]) -> dict[str, dict]:
    """Per layer: calls, self time, and time inside the layer counted once.

    Returns ``{layer: {"calls", "self_s", "entry_s", "metas"}}``. ``calls``
    counts every span, nested ones included; ``entry_s`` sums the durations
    of spans not nested in a span of the same layer; ``metas`` lists
    ``(self_s, record)`` for the spans a hook annotated.
    """
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for i, span in enumerate(spans):
        layer = span[0]
        row = out.setdefault(layer, {"calls": 0, "self_s": 0.0, "entry_s": 0.0, "metas": []})
        row["calls"] += 1
        row["self_s"] += selfs[i]
        parent = span[3]
        if parent < 0 or spans[parent][0] != layer:
            row["entry_s"] += span[2] - span[1]
        if span[4] is not None:
            row["metas"].append((selfs[i], span[4]))
    return out
