"""Command-line front end: evaluate, sweep, ingest custom channels, verify.

Exit codes: 0 success, 2 invalid arguments or schema, 3 I/O failure,
4 CPTP validation failure. All probabilities are printed with shortest
round-trip decimals so JSON and CSV outputs diff cleanly across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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
from .optimize import OptimizerOptions, optimize_entangled, optimize_single
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

class UsageError(ValueError):
    """Invalid parameters or malformed input files (exit code 2)."""


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# channel construction from CLI flags
# ---------------------------------------------------------------------------


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) != 3:
        raise UsageError(f"--weights expects three comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def _unitary_from_args(args) -> np.ndarray:
    if args.phases is not None and args.unitary_json is not None:
        raise UsageError("give either --phases or --unitary-json, not both")
    if args.phases is not None:
        phases = [float(p) for p in args.phases.split(",") if p.strip()]
        if len(phases) < 2:
            raise UsageError("--phases needs at least two comma-separated angles")
        return np.diag(np.exp(1j * np.array(phases)))
    try:
        with open(args.unitary_json, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read unitary file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"unitary file is not valid JSON: {exc}") from exc
    try:
        return from_pairs(data)
    except ValueError as exc:
        raise UsageError(f"unitary file: {exc}") from exc


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
    so a stray ``--d`` or ``--phases`` is never silently dropped.
    """
    fam = FAMILIES[family]
    inputs = [f for name in fam.inputs for f in _INPUT_FLAGS[name]]
    own = [*fam.params, *inputs]
    stray = [f for f in _FAMILY_FLAGS if f not in own and getattr(args, f, None) is not None]
    if stray:
        shown = [flag + n for n in fam.params] + ["--" + f.replace("_", "-") for f in inputs]
        raise UsageError(
            f"family {family!r} takes no --{stray[0].replace('_', '-')}; "
            f"its flags: {', '.join(shown) or 'none'}"
        )
    missing = [n for n, default in fam.params.items() if default is None and n not in given]
    if missing:
        raise UsageError(f"family {family!r} requires {', '.join(flag + n for n in missing)}")
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
            raise UsageError(f"malformed {what} spec near {piece!r}")
        key, value = piece.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _parse_zeta(body: str) -> tuple[complex, complex]:
    # format: c1=<re>,<im>,c2=<re>,<im>
    marker = ",c2="
    if not body.startswith("c1=") or marker not in body:
        raise UsageError("zeta probe spec must look like zeta:c1=<re>,<im>,c2=<re>,<im>")
    left, right = body.split(marker, 1)
    try:
        re1, im1 = (float(x) for x in left[len("c1="):].split(","))
        re2, im2 = (float(x) for x in right.split(","))
    except ValueError as exc:
        raise UsageError(f"zeta probe spec has non-numeric components: {exc}") from exc
    return complex(re1, im1), complex(re2, im2)


def _fixed_single_probe(body: str, dim: int):
    if body == "uniform":
        return uniform_superposition(dim)
    if body.startswith("|") and body.endswith(">"):
        try:
            index = int(body[1:-1])
        except ValueError as exc:
            raise UsageError(f"bad basis probe spec {body!r}") from exc
        return basis_probe(dim, index)
    if body.startswith("theta="):
        kv = _parse_kv(body, "single probe")
        theta = float(kv.get("theta", "0"))
        delta = float(kv.get("delta", "0"))
        if dim != 2:
            raise UsageError("theta/delta probes are qubit-only")
        return bloch_qubit(theta, delta)
    raise UsageError(
        f"bad single probe spec {body!r}; use single:uniform, single:|k>, "
        f"or single:theta=<t>,delta=<d>"
    )


def _closed_result(entry: tuple, probe_class: str) -> DiscriminationResult:
    value, probe, _ = entry
    return DiscriminationResult(
        value, probe_class=probe_class, probe=probe.to_dict(), method="closed_form"
    )


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
            raise UsageError(
                f"family {family!r} has no single-probe closed form; use "
                f"single:|k>, single:uniform, or optimize-single"
            )
        if p1 != 0.5:
            raise UsageError("closed forms assume equal priors; drop --p1 or use a fixed probe")
        return _closed_result(closed["single"](values), head)

    if head == "maxent" and not body:
        if p1 == 0.5 and "maxent" in closed:
            return _closed_result(closed["maxent"](values), "max_entangled")
        fixed = discrim_fixed_entangled(ch1, ch2, max_entangled(ch1.dim_in), p1)
        fixed.probe_class = "max_entangled"
        return fixed

    if head in ("nonmax", "schmidt"):
        name = "g" if head == "nonmax" else "p"
        kv = _parse_kv(body, f"{head} probe")
        if name not in kv:
            raise UsageError(f"{head} probe spec must give {name}, e.g. {head}:{name}=0.3")
        x = float(kv[name])
        z = float(kv.get("z", "0")) if head == "nonmax" else 0.0
        if p1 == 0.5 and fam is not None and fam.probe_param == name:
            return _closed_result(closed["nonmax"]({**values, name: x, "z": z}), head)
        if ch1.dim_in != 2:
            raise UsageError(f"{head}:{name} probes are qubit probes; channel input must be 2")
        probe = nonmax_qubit(x, z) if head == "nonmax" else schmidt_pair(x)
        fixed = discrim_fixed_entangled(ch1, ch2, probe, p1)
        fixed.probe_class = head
        return fixed

    if head == "zeta":
        c1, c2 = _parse_zeta(body)
        if ch1.dim_in != 3:
            raise UsageError("zeta probes live on qutrits; channel input must be 3")
        fixed = discrim_fixed_entangled(ch1, ch2, zeta_probe(c1, c2), p1)
        fixed.probe_class = "zeta"
        return fixed

    if head == "single" and body:
        probe = _fixed_single_probe(body, ch1.dim_in)
        return discrim_fixed_single(ch1, ch2, probe, p1)

    if head == "product" and body:
        probe = _fixed_single_probe(body, ch1.dim_in)
        fixed = discrim_fixed_entangled(
            ch1, ch2, product_probe(probe, basis_probe(2, 0)), p1
        )
        fixed.probe_class = "product"
        return fixed

    if spec in ("optimize-single", "optimize-ent"):
        if p1 != 0.5:
            raise UsageError("the optimizers assume equal priors")
        run = optimize_single if spec == "optimize-single" else optimize_entangled
        return run(ch1, ch2, opts)

    raise UsageError(
        f"unknown probe class {probe_spec!r}; expected single, product, maxent, "
        f"nonmax:g=<x>, schmidt:p=<x>, zeta:c1=<re>,<im>,c2=<re>,<im>, "
        f"single:|k>, single:uniform, optimize-single, or optimize-ent"
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _result_payload(family: str, params: dict, p1: float, result: DiscriminationResult) -> dict:
    return {
        "family": family,
        "params": params,
        "p1": p1,
        "probe_class": result.probe_class,
        "method": result.method,
        "probability": result.probability,
        "probe": result.probe,
        "optimizer_meta": result.optimizer_meta,
    }


def _emit(text: str, out_path: str | None) -> int:
    print(text)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {out_path!r}: {exc}")
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        opts = _optimizer_options(args)
        fam = FAMILIES[args.family]
        given = {n: getattr(args, n) for n in fam.params if getattr(args, n) is not None}
        values = _family_values(args.family, given, "--", args)
        ch1, ch2, params = fam.make(values)
        result = evaluate_probe_class(args.family, values, ch1, ch2, args.probe, args.p1, opts)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except CPTPError as exc:
        return _fail(EXIT_CPTP, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    payload = _result_payload(args.family, params, args.p1, result)
    return _emit(json.dumps(payload, indent=2), args.out)


def _parse_param_spec(text: str) -> tuple[str, list[float]]:
    if "=" not in text:
        raise UsageError(f"--param expects name=value or name=start:stop:step, got {text!r}")
    name, spec = text.split("=", 1)
    name = name.strip()
    if ":" in spec:
        pieces = spec.split(":")
        if len(pieces) != 3:
            raise UsageError(f"range spec must be start:stop:step, got {spec!r}")
        start, stop, step = (float(p) for p in pieces)
        if step <= 0:
            raise UsageError(f"range step must be positive, got {step!r}")
        values = []
        v = start
        while v <= stop + 1e-12 * max(1.0, abs(stop)):
            values.append(round(v, 12))
            v += step
        if not values:
            raise UsageError(f"range {spec!r} produced no values")
        return name, values
    return name, [float(spec)]


_SWEEP_CLASSES = ("maxent-closed", "nonmax-closed", "optimize-ent", "optimize-single", "single-closed")


def _sweep_value(family: str, values: dict, ch1, ch2, probe_class: str, opts) -> tuple[float, dict]:
    if probe_class in ("optimize-single", "optimize-ent"):
        run = optimize_single if probe_class == "optimize-single" else optimize_entangled
        result = run(ch1, ch2, opts)
        meta = {k: result.optimizer_meta[k] for k in ("restarts", "iterations", "final_step")}
        return float(result.probability), {"optimizer_meta": meta}
    fam = FAMILIES[family]
    kind = probe_class[: -len("-closed")]
    if kind not in fam.closed:
        raise UsageError(f"{probe_class} is not available for family {family!r}")
    if kind == "nonmax" and fam.probe_param not in values:
        raise UsageError(f"nonmax-closed for {family} needs a {fam.probe_param} parameter")
    value, _, detail = fam.closed[kind](values)
    return float(value), detail


def cmd_sweep(args) -> int:
    try:
        fam = FAMILIES[args.family]
        known = [*fam.params, *([fam.probe_param] if fam.probe_param else [])]
        params: dict[str, list[float]] = {}
        for spec in args.param or []:
            name, values = _parse_param_spec(spec)
            if name in params:
                raise UsageError(f"parameter {name!r} given twice")
            if name not in known:
                raise UsageError(
                    f"family {args.family!r} has no parameter {name!r}; "
                    f"its parameters: {', '.join(known) or 'none'}"
                )
            params[name] = values
        if not params:
            raise UsageError("sweep needs at least one --param")
        ranged = [n for n, vs in params.items() if len(vs) > 1]
        if len(ranged) > 2:
            raise UsageError(f"at most two parameters may be ranged, got {ranged}")
        probe_classes = sorted({p.strip() for p in args.probes.split(",") if p.strip()})
        if not probe_classes:
            raise UsageError("--probes needs at least one probe class")
        for pc in probe_classes:
            if pc not in _SWEEP_CLASSES:
                raise UsageError(
                    f"unknown sweep probe class {pc!r}; expected one of {_SWEEP_CLASSES}"
                )
        opts = _optimizer_options(args)

        axis = ranged if ranged else list(params)[:1]
        rows = []
        grids = [sorted(params[name]) for name in axis]
        mesh = [(v,) for v in grids[0]] if len(grids) == 1 else [
            (a, b) for a in grids[0] for b in grids[1]
        ]
        for point in mesh:
            given = {n: vs[0] for n, vs in params.items()}
            given.update(zip(axis, point))
            values = _family_values(args.family, given, "--param ", args)
            ch1, ch2, report = fam.make(values)
            shown = {n: report.get(n, v) for n, v in values.items() if n in known}
            for pc in probe_classes:
                value, detail = _sweep_value(args.family, values, ch1, ch2, pc, opts)
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
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except OSError as exc:
        return _fail(EXIT_IO, str(exc))
    except (CPTPError, ValueError) as exc:
        code = EXIT_CPTP if isinstance(exc, CPTPError) else EXIT_USAGE
        return _fail(code, str(exc))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["family", "param1", "param2", "probe_class", "probability", "probe_params"])
    writer.writerows(rows)
    text = buffer.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.out!r}: {exc}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_custom(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return _fail(EXIT_IO, f"cannot read {args.file!r}: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(EXIT_USAGE, f"{args.file!r} is not valid JSON: {exc}")
    if not isinstance(data, dict) or "channel1" not in data or "channel2" not in data:
        return _fail(
            EXIT_USAGE, 'custom file must be an object with "channel1" and "channel2"'
        )
    try:
        ch1 = channel_from_dict(data["channel1"])
        ch2 = channel_from_dict(data["channel2"])
    except CPTPError as exc:
        return _fail(
            EXIT_CPTP,
            f"channel failed CPTP validation: sum K†K residual = "
            f"{exc.tp_residual:.3e}, min Choi eigenvalue = {exc.choi_min_eigenvalue:.3e}",
        )
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))

    try:
        opts = _optimizer_options(args)
        result = evaluate_probe_class("custom", {}, ch1, ch2, args.probe, args.p1, opts)
    except UsageError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except ValueError as exc:
        return _fail(EXIT_USAGE, str(exc))
    payload = _result_payload("custom", {"file": args.file}, args.p1, result)
    return _emit(json.dumps(payload, indent=2), args.out)


def cmd_verify(args) -> int:
    only = None
    if args.only:
        try:
            only = {int(x) for x in args.only.split(",") if x.strip()}
        except ValueError:
            return _fail(EXIT_USAGE, f"--only expects comma-separated integers, got {args.only!r}")
    reports = run_acceptance(
        tolerance_scale=args.tolerance_scale, seed=args.seed or 0, only=only
    )
    as_json = json.dumps([r.to_dict() for r in reports], indent=2)
    if args.json:
        print(as_json)
    else:
        print(render_table(reports))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(as_json + "\n")
        except OSError as exc:
            return _fail(EXIT_IO, f"cannot write {args.out!r}: {exc}")
    return EXIT_OK if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def _optimizer_options(args) -> OptimizerOptions:
    kwargs = {}
    if getattr(args, "restarts", None) is not None:
        kwargs["restarts"] = args.restarts
    if getattr(args, "step_tolerance", None) is not None:
        kwargs["step_tolerance"] = args.step_tolerance
    if getattr(args, "max_iterations", None) is not None:
        kwargs["max_iterations"] = args.max_iterations
    kwargs["seed"] = args.seed or 0
    return OptimizerOptions(**kwargs)


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--seed", type=int, default=None, help="seed for all randomized steps")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
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


def build_parser() -> argparse.ArgumentParser:
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
    p_verify.add_argument("--only", default=None, help="comma-separated criterion numbers")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint():
    sys.exit(main())
