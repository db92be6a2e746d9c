"""Brute-force probe optimization via multistart compass search.

The trace-norm objective is continuous but not smooth (eigenvalue crossings
introduce kinks), and the search spaces are tiny: a probe on C^d is 2d real
parameters, a bipartite probe 2d^2, with d <= 6. A derivative-free compass
search from many starting points is robust there and needs no gradients.
Probes are parameterized as unconstrained real vectors, normalized on
evaluation, so the global phase and scale are harmless gauge directions.

The restarts of a multistart run in lockstep. Each compass search is a
generator that yields the next point it needs and waits for its value; every
round, the pending points of all live searches are scored by one stacked
``helstrom_pure`` call. An evaluation costs about ten numpy calls on matrices
of at most 36x36, so batching them saves call overhead rather than
arithmetic. The result does not depend on the batching: a search sees only
the values of its own points, so it follows the same first-improvement path
as it would alone, and every row of a stacked evaluation takes the same BLAS
and LAPACK calls as an evaluation on its own, so each value is the same bit
for bit.

These optimizers are deliberately independent of the closed-form expressions
in :mod:`chandiscrim.discrimination`; agreement between the two routes is the
main correctness check of the whole package.
"""

from __future__ import annotations

import functools
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


def _params_to_vectors(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit complex vectors of the parameter rows ``[re | im]`` of ``xs``.

    Returns the vectors of the rows whose norm clears ``_NORM_FLOOR`` and the
    mask of those rows. Each norm is formed as ``np.linalg.norm`` forms it, one
    strided dot over the real parts plus one over the imaginary parts, so it
    matches that function bit for bit.
    """
    half = xs.shape[1] // 2
    v = xs[:, :half] + 1j * xs[:, half:]
    re, im = v.real, v.imag
    norms = np.sqrt((re[:, None] @ re[:, :, None] + im[:, None] @ im[:, :, None])[:, 0, 0])
    ok = ~(norms < _NORM_FLOOR)
    return v[ok] / norms[ok, None], ok


def _vector_to_params(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _objective(ch1: Channel, ch2: Channel, shape: tuple[int, ...]):
    """Equal-prior success probabilities of the probes a stack of parameter rows encodes.

    ``shape`` is (dim_in,) for single-system probes and (dim_in, dim_b) for
    bipartite ones, the two probe forms ``helstrom_pure`` takes. A row too
    short to normalize scores 0.
    """
    k1 = np.stack(ch1.kraus)
    k2 = np.stack(ch2.kraus)

    def probability(xs: np.ndarray) -> np.ndarray:
        values = np.zeros(len(xs))
        vs, ok = _params_to_vectors(xs)
        values[ok] = helstrom_pure(k1, k2, vs.reshape(-1, *shape), 0.5)
        return values

    return probability


def _compass_search(x0, step_tolerance, max_sweeps):
    """Coordinate pattern search: first-improvement polls, step halved on a failed sweep.

    A generator: it yields each point to evaluate, is sent that point's value
    and returns ``(x, fx, step, sweeps, evals)``. The caller decides how the
    points are evaluated; the trajectory depends only on the values sent.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = yield x
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
                fc = yield x
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
                fx = yield x
                evals += 1
        else:
            step *= 0.5
    return x, fx, step, sweeps, evals


def _run_multistart(fn, starts, opts: OptimizerOptions):
    """One compass search per start, run in lockstep.

    Each round stacks the pending point of every live search and scores them
    with one ``fn`` call on an (m, nparams) array.
    """
    searches = [_compass_search(x0, opts.step_tolerance, opts.max_iterations) for x0 in starts]
    points = [search.send(None) for search in searches]
    outcomes = [None] * len(searches)
    live = list(range(len(searches)))
    while live:
        values = fn(np.array([points[i] for i in live])).tolist()
        running = []
        for i, value in zip(live, values):
            try:
                points[i] = searches[i].send(value)
                running.append(i)
            except StopIteration as done:
                outcomes[i] = done.value
        live = running

    best = None
    restart_values = []
    total_evals = 0
    for x, fx, step, sweeps, evals in outcomes:
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
        if probe.dim != d:
            raise ValueError(f"warm start has dimension {probe.dim}, expected {d}")
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
    vs, _ = _params_to_vectors(x[None])
    probe = SinglePureProbe(vs[0])
    return DiscriminationResult(
        probability=fx,
        probe_class="single",
        probe=probe.to_dict(),
        method="optimizer",
        optimizer_meta=meta,
    )


@functools.cache
def _bloch_grid_points() -> np.ndarray:
    """Parameter rows of the Bloch-angle grid, built once per process and read-only.

    Each row comes from ``bloch_qubit``; a vectorized build differs in the last bit
    of some entries, which would move the searches seeded from the grid.
    """
    points = np.stack(
        [
            _vector_to_params(bloch_qubit(theta, delta).amplitudes)
            for theta in np.linspace(0.0, np.pi, _BLOCH_GRID)
            for delta in np.linspace(0.0, 2.0 * np.pi, _BLOCH_GRID, endpoint=False)
        ]
    )
    points.setflags(write=False)
    return points


def _best_bloch_grid_point(fn):
    """The first best point of the Bloch-angle grid, all points scored in one call."""
    points = _bloch_grid_points()
    return points[np.argmax(fn(points))], len(points)


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
        if (probe.dim_a, probe.dim_b) != (d, d):
            raise ValueError(
                f"warm start has dimensions {probe.dim_a}x{probe.dim_b}, expected {d}x{d}"
            )
        seeds.append(_vector_to_params(probe.amplitudes))
    seeds.append(_vector_to_params(max_entangled(d).amplitudes))
    product = np.zeros(d * d, dtype=complex)
    product[0] = 1.0
    seeds.append(_vector_to_params(product))
    seeds.extend(_random_starts(rng, opts.restarts, 2 * d * d))

    x, fx, meta = _run_multistart(fn, seeds, opts)
    vs, _ = _params_to_vectors(x[None])
    probe = BipartitePureProbe(d, d, vs[0])
    return DiscriminationResult(
        probability=fx,
        probe_class="general_entangled",
        probe=probe.to_dict(),
        method="optimizer",
        optimizer_meta=meta,
    )
