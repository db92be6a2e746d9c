"""Brute-force probe optimization via a multistart see-saw ascent.

For a fixed probe the best measurement is the Helstrom one: with X the
difference p1 rho1 - (1 - p1) rho2 of the evolved states and S = sign(X),
||X||_1 = Tr S X is the largest value of Tr S' X over ||S'||_inf <= 1. For a
fixed S, Tr S X is the quadratic form <psi|M|psi> of

    M = p1 sum_i L_i^dagger S L_i - (1 - p1) sum_j L'_j^dagger S L'_j,

where L = K (x) 1_B runs over the Kraus operators of each channel (K itself for
single-system probes), so the best probe for that S is a top eigenvector of M.
Alternating the two steps never lowers the value: the new probe raises Tr S X,
and the trace norm of its difference is at least that.

Where that ascent is slow, as near perfect discrimination, each step also
tries the stretched probe psi + t (phi - psi), normalized, beyond the see-saw
probe phi; t starts at 2, doubles while the stretched probe wins and halves,
not below 2, when it loses. A step keeps the better of the two.

All starts run as one stack. Each step takes one batched ``eigh`` of the M
matrices of the live starts, which gives their see-saw probes, and one of the
differences of the see-saw and stretched probes, which gives their values and
measurements. A start stops at the first of:

(a) a step that does not raise its value; it keeps its previous probe, and
    its final step is 0;
(b) a step whose stretched probe lies within ``step_tolerance`` of the
    previous probe (2-norm, after aligning the global phase);
(c) a rate that cannot catch the best start: gain * (steps left) < best - value;
(d) ``max_iterations`` steps.

Rule (c) ends the losing starts that creep toward a kink by rounding-sized
gains. Each start keeps the best probe it has seen; the reported probability
is the ``helstrom_pure`` value of the reported probe, the same number
``discrim_fixed_single``/``discrim_fixed_entangled`` give for it.

These optimizers are deliberately independent of the closed-form expressions
in :mod:`chandiscrim.discrimination`; agreement between the two routes is the
main correctness check of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Channel
from .discrimination import (
    DiscriminationResult,
    _check_prior,
    _check_same_dims,
    helstrom_pure,
    pure_difference,
)
from .linalg import ket
from .probes import (
    BipartitePureProbe,
    SinglePureProbe,
    basis_probe,
    max_entangled,
    uniform_superposition,
)

# Cap on the extrapolation factor; far beyond the see-saw probe, the stretched
# probe is the normalized see-saw direction and doubling changes nothing.
_MAX_STRETCH = 2.0**20


@dataclass
class OptimizerOptions:
    """Knobs for the multistart see-saw ascent.

    ``step_tolerance`` is the largest probe move that counts as converged
    (rule (b) of the module docstring) and ``max_iterations`` the cap on
    see-saw steps per start.
    """

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


def _measure(k1, k2, p1, psi):
    """Values and Helstrom measurements S = V sign(Lambda) V^dagger of a stack of probes."""
    lam, vec = np.linalg.eigh(pure_difference(k1, k2, psi, p1))
    values = 0.5 * (1.0 + np.abs(lam).sum(axis=-1))
    return values, (vec * np.sign(lam)[:, None, :]) @ vec.conj().swapaxes(1, 2)


def _seesaw(ch1: Channel, ch2: Channel, p1: float, starts, dim_b: int, opts: OptimizerOptions):
    """Run the see-saw ascent from every start as one stack.

    ``starts`` are unit vectors on C^dim_in (x) C^dim_b. Returns the best probe
    over the starts, its ``helstrom_pure`` value and the optimizer metadata.
    """
    k1, k2 = ch1.kraus, ch2.kraus
    shape = (-1, ch1.dim_in, dim_b)  # the probes as the kernel takes them
    # L_i = K_i (x) 1_B with its weight: M = left @ [S L_1; S L_2; ...], S L_i from S @ right
    ops = np.kron(np.concatenate([k1, k2]), np.eye(dim_b))  # (r, D, n)
    r, dim, n = ops.shape
    weights = np.repeat([p1, -(1.0 - p1)], [len(k1), len(k2)])
    left = (weights[:, None, None] * ops.conj().swapaxes(1, 2)).swapaxes(0, 1).reshape(n, r * dim)
    right = ops.swapaxes(0, 1).reshape(dim, r * n)

    psi = np.array(starts, dtype=complex)
    value, s = _measure(k1, k2, p1, psi.reshape(shape))
    evaluations = len(psi)
    steps = np.zeros(len(psi), dtype=int)
    moved = np.zeros(len(psi))
    stretch = np.full(len(psi), 2.0)
    live = np.arange(len(psi))
    for k in range(1, opts.max_iterations + 1):
        m = len(live)
        sl = (s @ right).reshape(m, dim, r, n).swapaxes(1, 2).reshape(m, r * dim, n)
        near = np.linalg.eigh(left @ sl)[1][..., -1]
        old = psi[live]
        near *= np.exp(-1j * np.angle(np.sum(old.conj() * near, axis=1)))[:, None]
        far = old + stretch[live, None] * (near - old)
        far /= np.linalg.norm(far, axis=1, keepdims=True)
        both = np.concatenate([near, far])
        v, s = _measure(k1, k2, p1, both.reshape(shape))
        evaluations += 2 * m
        pick = np.arange(m) + m * (v[m:] > v[:m])
        new, v, s = both[pick], v[pick], s[pick]
        stretch[live] = np.where(pick >= m, np.minimum(2.0 * stretch[live], _MAX_STRETCH),
                                 np.maximum(2.0, 0.5 * stretch[live]))
        move = np.linalg.norm(far - old, axis=1)
        gain = v - value[live]
        raised = gain > 0
        up = live[raised]
        psi[up], value[up], steps[up], moved[up] = new[raised], v[raised], k, move[raised]
        moved[live[~raised]] = 0.0
        hopeless = gain * (opts.max_iterations - k) < value.max() - value[live]
        go = raised & (move > opts.step_tolerance) & ~hopeless
        live, s = live[go], s[go]
        if not live.size:
            break

    final = helstrom_pure(k1, k2, psi.reshape(shape), p1)
    best = int(np.argmax(final))
    meta = {
        "restarts": len(psi),
        "iterations": int(steps[best]),
        "final_step": float(moved[best]),
        "evaluations": evaluations + len(psi),
        "restart_values": final.tolist(),
    }
    return psi[best], float(final[best]), meta


def _random_starts(rng, count: int, dim: int):
    """``count`` random unit vectors on C^dim, each drawn as 2 dim real normals."""
    for _ in range(count):
        x = rng.standard_normal(2 * dim)
        x = x / np.linalg.norm(x)
        yield x[:dim] + 1j * x[dim:]


def _optimize(ch1: Channel, ch2: Channel, opts, warm_starts, p1, fixed, probe_class: str):
    """Search "single" probes, or bipartite ones with dim_b = dim_in for any other class.

    The starts are, in order, the ``warm_starts``, the ``fixed`` amplitude
    vectors and ``opts.restarts`` random ones.
    """
    _check_same_dims(ch1, ch2)
    p1 = _check_prior(p1)
    opts = opts or OptimizerOptions()
    single = probe_class == "single"
    d = ch1.dim_in
    dims = (d,) if single else (d, d)
    for probe in warm_starts or []:
        got = (probe.dim,) if single else (probe.dim_a, probe.dim_b)
        if got != dims:
            raise ValueError(
                f"warm start has dimension{'' if single else 's'} {'x'.join(map(str, got))}, "
                f"expected {'x'.join(map(str, dims))}"
            )
    starts = [probe.amplitudes for probe in warm_starts or []] + fixed
    starts.extend(_random_starts(np.random.default_rng(opts.seed), opts.restarts, d ** len(dims)))

    psi, value, meta = _seesaw(ch1, ch2, p1, starts, 1 if single else d, opts)
    probe = SinglePureProbe(psi) if single else BipartitePureProbe(d, d, psi)
    return DiscriminationResult(value, probe_class, probe.to_dict(), "optimizer", meta)


def optimize_single(
    ch1: Channel,
    ch2: Channel,
    opts: OptimizerOptions | None = None,
    warm_starts: list[SinglePureProbe] | None = None,
    p1: float = 0.5,
) -> DiscriminationResult:
    """Best success probability found over pure single-system probes, priors (p1, 1 - p1).

    The search always starts from any ``warm_starts`` supplied, the uniform
    superposition and |0>, so the result is never below those fixed-probe
    values, and from ``opts.restarts`` random probes.
    """
    d = ch1.dim_in
    fixed = [uniform_superposition(d).amplitudes, basis_probe(d, 0).amplitudes]
    return _optimize(ch1, ch2, opts, warm_starts, p1, fixed, "single")


def optimize_entangled(
    ch1: Channel,
    ch2: Channel,
    opts: OptimizerOptions | None = None,
    warm_starts: list[BipartitePureProbe] | None = None,
    p1: float = 0.5,
) -> DiscriminationResult:
    """Best success probability over bipartite pure probes with dim_b = dim_in, priors (p1, 1 - p1).

    An ancilla larger than the channel input never helps (Schmidt rank of the
    probe is at most dim_in), so the B side is fixed to dim_in. Starts include
    the maximally entangled probe and the product probe |0>|0>.
    """
    d = ch1.dim_in
    fixed = [max_entangled(d).amplitudes, ket(d * d, 0)]  # the product probe |0>|0>
    return _optimize(ch1, ch2, opts, warm_starts, p1, fixed, "general_entangled")
