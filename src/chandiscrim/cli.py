"""Command-line front end: evaluate, sweep, ingest custom channels, verify.

Exit codes: 0 success, 2 invalid arguments or schema, 3 I/O failure,
4 CPTP validation failure. The subcommands raise; ``main`` alone turns the
exception into an exit code, so every subcommand maps errors the same way.
All probabilities are printed with shortest round-trip decimals so JSON and
CSV outputs diff cleanly across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys

import numpy as np

from .channels import Channel, CPTPError, channel_from_dict
from .discrimination import (
    FAMILIES,
    DiscriminationResult,
    discrim_fixed_entangled,
    discrim_fixed_single,
)
from .linalg import from_pairs
from .optimize import OptimizerOptions, optimize_entangled, optimize_pairs, optimize_single
from .probes import (
    basis_probe,
    bloch_qubit,
    max_entangled,
    nonmax_qubit,
    product_probe,
    schmidt_pair,
    uniform_superposition,
    zeta_probe,
)
from .verify import render_table, run_acceptance

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CPTP = 4


def _read_json(path: str):
    """The JSON document in ``path``: OSError if it cannot be opened, else ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read {path!r}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"cannot read {path!r}: {exc}") from exc


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as it is (no newline translation)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# channel construction from CLI flags
# ---------------------------------------------------------------------------


def _finite(what: str, text) -> float:
    """``text`` as a float; a ValueError naming it if it is nan or infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be a finite number, got {text!r}")
    return value


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise ValueError(f"--weights expects three comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _unitary_from_args(args) -> np.ndarray:
    if args.phases is not None and args.unitary_json is not None:
        raise ValueError("give either --phases or --unitary-json, not both")
    if args.phases is not None:
        phases = [_finite("--phases angle", p) for p in args.phases.split(",") if p.strip()]
        if len(phases) < 2:
            raise ValueError("--phases needs at least two comma-separated angles")
        return np.diag(np.exp(1j * np.array(phases)))
    data = _read_json(args.unitary_json)
    try:
        return from_pairs(data)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"unitary file: {exc}") from exc


# The flags that carry each non-scalar family input (``Family.inputs``).
_INPUT_FLAGS = {"u": ("phases", "unitary_json"), "weights": ("weights",)}
# Every family flag: the scalar parameters of all families, then the input flags.
_FAMILY_FLAGS = (
    *dict.fromkeys(n for fam in FAMILIES.values() for n in fam.params),
    *(f for flags in _INPUT_FLAGS.values() for f in flags),
)


def _family_values(family: str, given: dict, flag: str, args) -> dict:
    """Parameter dict for ``FAMILIES[family]``: defaults filled, flag inputs added.

    A family flag set in ``args`` that the family does not read is an error,
    so a stray ``--d`` or ``--phases`` is never silently dropped. It decodes the
    flag inputs (unitary file, phases, weights), so a sweep calls it once.
    """
    fam = FAMILIES[family]
    inputs = [f for name in fam.inputs for f in _INPUT_FLAGS[name]]
    own = [*fam.params, *inputs]
    stray = [f for f in _FAMILY_FLAGS if f not in own and getattr(args, f, None) is not None]
    if stray:
        shown = [flag + n for n in fam.params] + ["--" + f.replace("_", "-") for f in inputs]
        raise ValueError(
            f"family {family!r} takes no --{stray[0].replace('_', '-')}; "
            f"its flags: {', '.join(shown) or 'none'}"
        )
    missing = [n for n, default in fam.params.items() if default is None and n not in given]
    if missing:
        raise ValueError(f"family {family!r} requires {', '.join(flag + n for n in missing)}")
    values = {**{n: d for n, d in fam.params.items() if d is not None}, **given}
    if args.phases is not None or args.unitary_json is not None:
        values["u"] = _unitary_from_args(args)
    if getattr(args, "weights", None) is not None:
        values["weights"] = _parse_weights(args.weights)
    return values


# ---------------------------------------------------------------------------
# probe-class grammar
# ---------------------------------------------------------------------------


def _parse_kv(text: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError(f"malformed {what} spec near {piece!r}")
        key, value = piece.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_zeta(body: str) -> tuple[complex, complex]:
    # format: c1=<re>,<im>,c2=<re>,<im>
    marker = ",c2="
    if not body.startswith("c1=") or marker not in body:
        raise ValueError("zeta probe spec must look like zeta:c1=<re>,<im>,c2=<re>,<im>")
    left, right = body.split(marker, 1)
    try:
        re1, im1 = (float(x) for x in left[len("c1="):].split(","))
        re2, im2 = (float(x) for x in right.split(","))
    except ValueError as exc:
        raise ValueError(f"zeta probe spec has non-numeric components: {exc}") from exc
    for x in (re1, im1, re2, im2):
        _finite("zeta probe component", x)
    return complex(re1, im1), complex(re2, im2)


def _fixed_single_probe(body: str, dim: int):
    if body == "uniform":
        return uniform_superposition(dim)
    if body.startswith("|") and body.endswith(">"):
        try:
            index = int(body[1:-1])
        except ValueError as exc:
            raise ValueError(f"bad basis probe spec {body!r}") from exc
        return basis_probe(dim, index)
    if body.startswith("theta="):
        kv = _parse_kv(body, "single probe")
        theta = _finite("theta", kv.get("theta", "0"))
        delta = _finite("delta", kv.get("delta", "0"))
        if dim != 2:
            raise ValueError("theta/delta probes are qubit-only")
        return bloch_qubit(theta, delta)
    raise ValueError(
        f"bad single probe spec {body!r}; use single:uniform, single:|k>, "
        f"or single:theta=<t>,delta=<d>"
    )


def _closed_result(entry: tuple, probe_class: str) -> DiscriminationResult:
    value, probe, _ = entry
    return DiscriminationResult(value, probe_class=probe_class, probe=probe, method="closed_form")


def evaluate_probe_class(
    family: str,
    values: dict,
    ch1: Channel,
    ch2: Channel,
    probe_spec: str,
    p1: float,
    opts: OptimizerOptions,
) -> DiscriminationResult:
    """Dispatch a probe-class spec onto closed forms, fixed probes, or optimizers.

    ``family`` names a ``FAMILIES`` entry whose closed forms read ``values``;
    any other name (the CLI uses "custom") has no closed forms.
    """
    spec = probe_spec.strip()
    head, _, body = spec.partition(":")
    fam = FAMILIES.get(family)
    closed = fam.closed if fam is not None else {}

    if head in ("single", "product") and not body:
        if "single" not in closed:
            raise ValueError(
                f"family {family!r} has no single-probe closed form; use "
                f"single:|k>, single:uniform, or optimize-single"
            )
        if p1 != 0.5:
            raise ValueError("closed forms assume equal priors; drop --p1 or use a fixed probe")
        return _closed_result(closed["single"](values), head)

    if head == "single" and body:
        return discrim_fixed_single(ch1, ch2, _fixed_single_probe(body, ch1.dim_in), p1)

    if spec in ("optimize-single", "optimize-ent"):
        run = optimize_single if spec == "optimize-single" else optimize_entangled
        return run(ch1, ch2, opts, p1=p1)

    # Every other class, where no closed form applies, is one fixed bipartite probe.
    if head == "maxent" and not body:
        if p1 == 0.5 and "maxent" in closed:
            return _closed_result(closed["maxent"](values), "max_entangled")
        probe_class, probe = "max_entangled", max_entangled(ch1.dim_in)
    elif head in ("nonmax", "schmidt"):
        name = "g" if head == "nonmax" else "p"
        kv = _parse_kv(body, f"{head} probe")
        if name not in kv:
            raise ValueError(f"{head} probe spec must give {name}, e.g. {head}:{name}=0.3")
        x = _finite(name, kv[name])
        z = _finite("z", kv.get("z", "0")) if head == "nonmax" else 0.0
        if p1 == 0.5 and fam is not None and fam.probe_param == name:
            return _closed_result(closed["nonmax"]({**values, name: x, "z": z}), head)
        if ch1.dim_in != 2:
            raise ValueError(f"{head}:{name} probes are qubit probes; channel input must be 2")
        probe_class = head
        probe = nonmax_qubit(x, z) if head == "nonmax" else schmidt_pair(x)
    elif head == "zeta":
        c1, c2 = _parse_zeta(body)
        if ch1.dim_in != 3:
            raise ValueError("zeta probes live on qutrits; channel input must be 3")
        probe_class, probe = "zeta", zeta_probe(c1, c2)
    elif head == "product":
        single = _fixed_single_probe(body, ch1.dim_in)
        probe_class, probe = "product", product_probe(single, basis_probe(2, 0))
    else:
        raise ValueError(
            f"unknown probe class {probe_spec!r}; expected single, product, maxent, "
            f"nonmax:g=<x>, schmidt:p=<x>, zeta:c1=<re>,<im>,c2=<re>,<im>, "
            f"single:|k>, single:uniform, optimize-single, or optimize-ent"
        )
    result = discrim_fixed_entangled(ch1, ch2, probe, p1)
    result.probe_class = probe_class
    return result


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _print_result(family: str, params: dict, args, result: DiscriminationResult) -> int:
    payload = {
        "family": family,
        "params": params,
        "p1": args.p1,
        "probe_class": result.probe_class,
        "method": result.method,
        "probability": result.probability,
        "probe": result.probe.to_dict(),
        "optimizer_meta": result.optimizer_meta,
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        _write(args.out, text + "\n")
    return EXIT_OK


def cmd_eval(args) -> int:
    opts = _optimizer_options(args)
    fam = FAMILIES[args.family]
    given = {n: getattr(args, n) for n in fam.params if getattr(args, n) is not None}
    values = _family_values(args.family, given, "--", args)
    ch1, ch2, params = fam.make(values)
    result = evaluate_probe_class(args.family, values, ch1, ch2, args.probe, args.p1, opts)
    return _print_result(args.family, params, args, result)


def _parse_param_spec(text: str) -> tuple[str, list[float]]:
    if "=" not in text:
        raise ValueError(f"--param expects name=value or name=start:stop:step, got {text!r}")
    name, spec = text.split("=", 1)
    name = name.strip()
    if ":" in spec:
        pieces = spec.split(":")
        if len(pieces) != 3:
            raise ValueError(f"range spec must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in pieces)
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ValueError(f"range start, stop and step must be finite, got {spec!r}")
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step!r}")
        values = []
        v = start
        while v <= stop + 1e-12 * max(1.0, abs(stop)):
            values.append(round(v, 12))
            if v + step == v:
                raise ValueError(f"range step {step!r} does not advance from {v!r}")
            v += step
        if not values:
            raise ValueError(f"range {spec!r} produced no values")
        return name, values
    return name, [float(spec)]


# The sweep classes that run the optimizer, with the probe class each searches.
_SWEEP_SEARCHES = {"optimize-single": "single", "optimize-ent": "general_entangled"}
# Every sweep class: "<kind>-closed" for each closed kind in FAMILIES, and the searches.
_SWEEP_CLASSES = tuple(
    sorted({f"{k}-closed" for fam in FAMILIES.values() for k in fam.closed} | set(_SWEEP_SEARCHES))
)


def _sweep_closed(family: str, values: dict, probe_class: str) -> tuple[float, dict]:
    fam = FAMILIES[family]
    kind = probe_class[: -len("-closed")]
    if kind not in fam.closed:
        raise ValueError(f"{probe_class} is not available for family {family!r}")
    if kind == "nonmax" and fam.probe_param not in values:
        raise ValueError(f"nonmax-closed for {family} needs a {fam.probe_param} parameter")
    value, _, detail = fam.closed[kind](values)
    return float(value), detail


def cmd_sweep(args) -> int:
    fam = FAMILIES[args.family]
    known = [*fam.params, *([fam.probe_param] if fam.probe_param else [])]
    params: dict[str, list[float]] = {}
    for spec in args.param or []:
        name, values = _parse_param_spec(spec)
        if name in params:
            raise ValueError(f"parameter {name!r} given twice")
        if name not in known:
            raise ValueError(
                f"family {args.family!r} has no parameter {name!r}; "
                f"its parameters: {', '.join(known) or 'none'}"
            )
        params[name] = values
    if not params:
        raise ValueError("sweep needs at least one --param")
    ranged = [n for n, vs in params.items() if len(vs) > 1]
    if len(ranged) > 2:
        raise ValueError(f"at most two parameters may be ranged, got {ranged}")
    probe_classes = sorted({p.strip() for p in args.probes.split(",") if p.strip()})
    if not probe_classes:
        raise ValueError("--probes needs at least one probe class")
    for pc in probe_classes:
        if pc not in _SWEEP_CLASSES:
            raise ValueError(
                f"unknown sweep probe class {pc!r}; expected one of {_SWEEP_CLASSES}"
            )
    opts = _optimizer_options(args)

    axis = ranged if ranged else list(params)[:1]
    grids = [sorted(params[name]) for name in axis]
    mesh = [(v,) for v in grids[0]] if len(grids) == 1 else [
        (a, b) for a in grids[0] for b in grids[1]
    ]
    base = _family_values(args.family, {n: vs[0] for n, vs in params.items()}, "--param ", args)
    # Channels and closed forms point by point, so the first bad point reports
    # first; then one optimize_pairs call per optimizer class searches them all.
    points, pairs = [], []
    for point in mesh:
        values = {**base, **dict(zip(axis, point))}
        ch1, ch2, report = fam.make(values)
        shown = {n: report.get(n, v) for n, v in values.items() if n in known}
        found = {
            pc: _sweep_closed(args.family, values, pc)
            for pc in probe_classes
            if pc not in _SWEEP_SEARCHES
        }
        points.append((point, shown, found))
        pairs.append((ch1, ch2))
    for pc, probe_class in _SWEEP_SEARCHES.items():
        if pc in probe_classes:
            for (_, _, found), result in zip(points, optimize_pairs(pairs, probe_class, opts)):
                meta = {k: result.optimizer_meta[k] for k in ("restarts", "iterations", "final_step")}
                found[pc] = float(result.probability), {"optimizer_meta": meta}

    rows = []
    for point, shown, found in points:
        for pc in probe_classes:
            value, detail = found[pc]
            rows.append(
                (
                    args.family,
                    repr(float(point[0])),
                    repr(float(point[1])) if len(point) > 1 else "",
                    pc,
                    repr(value),
                    json.dumps({**shown, **detail}, sort_keys=True),
                )
            )

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["family", "param1", "param2", "probe_class", "probability", "probe_params"])
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_custom(args) -> int:
    data = _read_json(args.file)
    if not isinstance(data, dict) or "channel1" not in data or "channel2" not in data:
        raise ValueError('custom file must be an object with "channel1" and "channel2"')
    ch1 = channel_from_dict(data["channel1"], name="channel1")
    ch2 = channel_from_dict(data["channel2"], name="channel2")
    opts = _optimizer_options(args)
    result = evaluate_probe_class("custom", {}, ch1, ch2, args.probe, args.p1, opts)
    return _print_result("custom", {"file": args.file}, args, result)


def cmd_verify(args) -> int:
    reports = run_acceptance(
        tolerance_scale=args.tolerance_scale, seed=args.seed or 0, only=args.only
    )
    as_json = json.dumps([dataclasses.asdict(r) for r in reports], indent=2)
    print(as_json if args.json else render_table(reports))
    if args.out:
        _write(args.out, as_json + "\n")
    return EXIT_OK if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def criteria(text: str) -> set[int]:
    """The ``--only`` numbers; ``run_acceptance`` rejects unknown ones."""
    return {int(x) for x in text.split(",") if x.strip()}


def _optimizer_options(args) -> OptimizerOptions:
    names = ("restarts", "step_tolerance", "max_iterations")
    given = {n: getattr(args, n) for n in names if getattr(args, n) is not None}
    return OptimizerOptions(**given, seed=args.seed or 0)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="seed for all randomized steps")
    parser.add_argument("--out", default=None, help="write the primary output to this path")


def _add_family_flags(parser: argparse.ArgumentParser):
    defaults = {n: d for fam in FAMILIES.values() for n, d in fam.params.items()}
    for name, default in defaults.items():
        shown = None if default is None else f"default {default}"
        parser.add_argument(f"--{name}", type=float, default=None, help=shown)
    parser.add_argument("--weights", default=None, help="w1,w2,w3 for mixed-unitary pairs")
    parser.add_argument("--phases", default=None, help="diagonal unitary phases a,b,...")
    parser.add_argument("--unitary-json", default=None, help="path to a [re,im]-pair matrix")


def _add_optimizer_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--restarts", type=int, default=None)
    parser.add_argument("--step-tolerance", type=float, default=None)
    parser.add_argument("--max-iterations", type=int, default=None)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call: parsing keeps no state."""
    parser = argparse.ArgumentParser(
        prog="chandiscrim",
        description="Single-shot distinguishability of noisy quantum channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one channel pair under one probe class")
    p_eval.add_argument("family", choices=list(FAMILIES))
    _add_family_flags(p_eval)
    p_eval.add_argument("--probe", required=True, help="probe class spec")
    p_eval.add_argument("--p1", type=float, default=0.5, help="prior of the first channel")
    _add_optimizer_flags(p_eval)
    _add_common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="grid-sweep parameters to CSV")
    p_sweep.add_argument("family", choices=list(FAMILIES))
    p_sweep.add_argument(
        "--param",
        action="append",
        help="name=value or name=start:stop:step (repeatable, at most two ranged)",
    )
    p_sweep.add_argument("--probes", required=True, help="comma-separated probe classes")
    p_sweep.add_argument("--phases", default=None, help="diagonal unitary phases a,b,...")
    p_sweep.add_argument("--unitary-json", default=None)
    _add_optimizer_flags(p_sweep)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_custom = sub.add_parser("custom", help="evaluate user-supplied Kraus channels")
    p_custom.add_argument("file", help="JSON file with channel1/channel2 Kraus data")
    p_custom.add_argument("--probe", required=True)
    p_custom.add_argument("--p1", type=float, default=0.5)
    _add_optimizer_flags(p_custom)
    _add_common(p_custom)
    p_custom.set_defaults(func=cmd_custom)

    p_verify = sub.add_parser("verify", help="run the full verification battery")
    p_verify.add_argument("--tolerance-scale", type=float, default=1.0)
    p_verify.add_argument("--json", action="store_true", help="print the reports as JSON")
    p_verify.add_argument(
        "--only", type=criteria, default=None, help="comma-separated criterion numbers"
    )
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand; the only place an exception becomes an exit code.

    It may be called repeatedly in one process; the parser is built once.
    """
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except CPTPError as exc:  # a ValueError, so it is caught first
        code, error = EXIT_CPTP, exc
    except OSError as exc:
        code, error = EXIT_IO, exc
    except ValueError as exc:
        code, error = EXIT_USAGE, exc
    print(f"error: {error}", file=sys.stderr)
    return code


def entrypoint():
    sys.exit(main())
