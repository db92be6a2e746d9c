"""Brute-force probe optimization via multistart compass search.

The trace-norm objective is continuous but not smooth (eigenvalue crossings
introduce kinks), and the search spaces are tiny: a probe on C^d is 2d real
parameters, a bipartite probe 2d^2, with d <= 6. A derivative-free compass
search from many starting points is robust there and needs no gradients.
Probes are parameterized as unconstrained real vectors, normalized on
evaluation, so the global phase and scale are harmless gauge directions.

These optimizers are deliberately independent of the closed-form expressions
in :mod:`chandiscrim.discrimination`; agreement between the two routes is the
main correctness check of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .discrimination import DiscriminationResult, _check_same_dims, helstrom_pure
from .probes import (
    BipartitePureProbe,
    SinglePureProbe,
    basis_probe,
    bloch_qubit,
    max_entangled,
    uniform_superposition,
)

_INITIAL_STEP = 0.3
_NORM_FLOOR = 1e-12
# Grid points per Bloch angle in the scan that seeds one extra start for
# single qubit probes; higher-dimensional searches rely on random restarts.
_BLOCH_GRID = 24


@dataclass
class OptimizerOptions:
    """Knobs for the multistart compass search."""

    restarts: int = 32
    step_tolerance: float = 1e-7
    max_iterations: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be positive")
        if not self.step_tolerance > 0:  # also rejects nan
            raise ValueError("step_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def _params_to_vector(x: np.ndarray) -> np.ndarray | None:
    half = x.size // 2
    v = x[:half] + 1j * x[half:]
    norm = np.linalg.norm(v)
    if norm < _NORM_FLOOR:
        return None
    return v / norm


def _vector_to_params(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _objective(ch1: Channel, ch2: Channel, shape: tuple[int, ...]):
    """Equal-prior success probability of the probe a parameter vector encodes.

    ``shape`` is (dim_in,) for single-system probes and (dim_in, dim_b) for
    bipartite ones, the two forms ``helstrom_pure`` takes.
    """
    k1 = np.stack(ch1.kraus)
    k2 = np.stack(ch2.kraus)

    def probability(x: np.ndarray) -> float:
        v = _params_to_vector(x)
        if v is None:
            return 0.0
        return helstrom_pure(k1, k2, v.reshape(shape), 0.5)

    return probability


def _compass_search(fn, x0, step_tolerance, max_sweeps):
    """Coordinate pattern search: first-improvement polls, step halved on a failed sweep."""
    x = np.asarray(x0, dtype=float).copy()
    fx = fn(x)
    evals = 1
    step = _INITIAL_STEP
    sweeps = 0
    while step > step_tolerance and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for k in range(x.size):
            base = x[k]
            for delta in (step, -step):
                x[k] = base + delta
                fc = fn(x)
                evals += 1
                if fc > fx:
                    fx = fc
                    base = x[k]
                    improved = True
                    break
            x[k] = base
        if improved:
            # Gauge-fix the scale so the step size keeps its angular meaning.
            norm = np.linalg.norm(x)
            if norm > _NORM_FLOOR:
                x /= norm
                fx = fn(x)
                evals += 1
        else:
            step *= 0.5
    return x, fx, step, sweeps, evals


def _run_multistart(fn, starts, opts: OptimizerOptions):
    best = None
    restart_values = []
    total_evals = 0
    for x0 in starts:
        x, fx, step, sweeps, evals = _compass_search(
            fn, x0, opts.step_tolerance, opts.max_iterations
        )
        restart_values.append(fx)
        total_evals += evals
        if best is None or fx > best[1]:
            best = (x, fx, step, sweeps)
    x, fx, step, sweeps = best
    meta = {
        "restarts": len(starts),
        "iterations": sweeps,
        "final_step": step,
        "evaluations": total_evals,
        "restart_values": restart_values,
    }
    return x, fx, meta


def _random_starts(rng, count: int, nparams: int):
    for _ in range(count):
        x = rng.standard_normal(nparams)
        yield x / np.linalg.norm(x)


def optimize_single(
    ch1: Channel,
    ch2: Channel,
    opts: OptimizerOptions | None = None,
    warm_starts: list[SinglePureProbe] | None = None,
) -> DiscriminationResult:
    """Best equal-prior probability found over pure single-system probes.

    The search always seeds from the uniform superposition and |0> (plus any
    ``warm_starts`` supplied), so the result is never below those fixed-probe
    values; for qubit channels a coarse Bloch-sphere scan adds one more start.
    """
    _check_same_dims(ch1, ch2)
    if opts is None:
        opts = OptimizerOptions()
    d = ch1.dim_in
    fn = _objective(ch1, ch2, (d,))
    rng = np.random.default_rng(opts.seed)

    seeds: list[np.ndarray] = []
    for probe in warm_starts or []:
        seeds.append(_vector_to_params(probe.amplitudes))
    seeds.append(_vector_to_params(uniform_superposition(d).amplitudes))
    seeds.append(_vector_to_params(basis_probe(d, 0).amplitudes))
    grid_evals = 0
    if d == 2:
        best_grid, grid_evals = _best_bloch_grid_point(fn)
        seeds.append(best_grid)
    seeds.extend(_random_starts(rng, opts.restarts, 2 * d))

    x, fx, meta = _run_multistart(fn, seeds, opts)
    meta["evaluations"] += grid_evals
    probe = SinglePureProbe(_params_to_vector(x))
    return DiscriminationResult(
        probability=fx,
        probe_class="single",
        probe=probe.to_dict(),
        method="optimizer",
        optimizer_meta=meta,
    )


def _best_bloch_grid_point(fn):
    best_val = -np.inf
    best_x = None
    evals = 0
    for theta in np.linspace(0.0, np.pi, _BLOCH_GRID):
        for delta in np.linspace(0.0, 2.0 * np.pi, _BLOCH_GRID, endpoint=False):
            x = _vector_to_params(bloch_qubit(theta, delta).amplitudes)
            val = fn(x)
            evals += 1
            if val > best_val:
                best_val, best_x = val, x
    return best_x, evals


def optimize_entangled(
    ch1: Channel,
    ch2: Channel,
    opts: OptimizerOptions | None = None,
    warm_starts: list[BipartitePureProbe] | None = None,
) -> DiscriminationResult:
    """Best equal-prior probability over bipartite pure probes with dim_b = dim_in.

    An ancilla larger than the channel input never helps (Schmidt rank of the
    probe is at most dim_in), so the B side is fixed to dim_in. Seeds include
    the maximally entangled probe and the product probe |0>|0>.
    """
    _check_same_dims(ch1, ch2)
    if opts is None:
        opts = OptimizerOptions()
    d = ch1.dim_in
    fn = _objective(ch1, ch2, (d, d))
    rng = np.random.default_rng(opts.seed)

    seeds: list[np.ndarray] = []
    for probe in warm_starts or []:
        if probe.dim_b != d:
            raise ValueError(f"warm start has dim_b={probe.dim_b}, expected {d}")
        seeds.append(_vector_to_params(probe.amplitudes))
    seeds.append(_vector_to_params(max_entangled(d).amplitudes))
    product = np.zeros(d * d, dtype=complex)
    product[0] = 1.0
    seeds.append(_vector_to_params(product))
    seeds.extend(_random_starts(rng, opts.restarts, 2 * d * d))

    x, fx, meta = _run_multistart(fn, seeds, opts)
    probe = BipartitePureProbe(d, d, _params_to_vector(x))
    return DiscriminationResult(
        probability=fx,
        probe_class="general_entangled",
        probe=probe.to_dict(),
        method="optimizer",
        optimizer_meta=meta,
    )
