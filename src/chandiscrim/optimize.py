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

All starts run as one stack, and so do the searches of many channel pairs
(``optimize_pairs``, which a sweep calls once per optimizer class): the pairs
whose Kraus stacks share their shapes run together, as many at a time as keep
a step's largest arrays under ``_STACK_ENTRIES`` entries. Each step takes one
batched ``eigh`` of the M matrices of the live starts, which gives their
see-saw probes, and one of the differences of the see-saw and stretched
probes, which gives their values and measurements. A start stops at the first
of:

(a) a step that does not raise its value; it keeps its previous probe, and
    its final step is 0;
(b) a step whose stretched probe lies within ``step_tolerance`` of the
    previous probe (2-norm, after aligning the global phase);
(c) a rate that cannot catch the best start of its pair:
    gain * (steps left) < best - value;
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
    _check_same_dims,
    _check_unit,
    helstrom_pure,
    pure_difference,
)
from .linalg import ket
from .probes import (
    PureProbe,
    basis_probe,
    max_entangled,
    uniform_superposition,
)

# Cap on the extrapolation factor; far beyond the see-saw probe, the stretched
# probe is the normalized see-saw direction and doubling changes nothing.
_MAX_STRETCH = 2.0**20

# Cap on the entries of the largest arrays a step of a stacked see-saw holds,
# S @ right and its reordered copy: (live starts) x (n1 + n2) * D * n.
# optimize_pairs stacks as many pairs as fit under it, and runs a pair that
# does not fit alone, broadcasting its operators. Below the cap a step's cost is mostly numpy call
# overhead, which stacking saves; above it the arithmetic dominates, and the
# per-start copies of a stack would only add memory and time.
_STACK_ENTRIES = 2**15


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
        if not 0 < self.step_tolerance < np.inf:  # also rejects nan
            raise ValueError(f"step_tolerance must be positive and finite, got {self.step_tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")


def _measure(k1, k2, p1, psi):
    """Values and Helstrom measurements S = V sign(Lambda) V^dagger of a stack of probes."""
    lam, vec = np.linalg.eigh(pure_difference(k1, k2, psi, p1))
    values = 0.5 * (1.0 + np.abs(lam).sum(axis=-1))
    return values, (vec * np.sign(lam)[:, None, :]) @ vec.conj().swapaxes(1, 2)


def _seesaw(k1, k2, p1: float, starts, dim_b: int, opts: OptimizerOptions):
    """Run the see-saw ascent from every start of every channel pair as one stack.

    ``k1`` and ``k2`` stack the Kraus operators of P pairs, shapes
    (P, n1, dim_out, dim_in) and (P, n2, dim_out, dim_in); ``starts`` holds the
    S starts of each pair, a (P, S, dim_in * dim_b) array of unit vectors on
    C^dim_in (x) C^dim_b. Returns one (psi, value, meta) per pair: the best
    probe over its starts, its ``helstrom_pure`` value and the optimizer
    metadata. Every start takes the path it takes alone, so each pair's result
    is bit for bit that of a one-pair call.
    """
    npairs, count, _ = starts.shape
    pair = np.repeat(np.arange(npairs), count)  # the pair of each start

    def of(a, pairs):
        """The operators ``a`` of these pairs, one per start; a lone pair's broadcast."""
        return a[0] if npairs == 1 else a[pairs]

    shape = (-1, k1.shape[-1], dim_b)  # the probes as the kernel takes them
    # L_i = K_i (x) 1_B with its weight: M = left @ [S L_1; S L_2; ...], S L_i from S @ right
    ops = np.kron(np.concatenate([k1, k2], axis=1), np.eye(dim_b))  # (P, r, D, n)
    r, dim, n = ops.shape[1:]
    weights = np.repeat([p1, -(1.0 - p1)], [k1.shape[1], k2.shape[1]])
    left = (weights[:, None, None] * ops.conj().swapaxes(2, 3)).swapaxes(1, 2)
    left = left.reshape(npairs, n, r * dim)
    right = ops.swapaxes(1, 2).reshape(npairs, dim, r * n)

    psi = np.array(starts, dtype=complex).reshape(npairs * count, -1)
    value, s = _measure(of(k1, pair), of(k2, pair), p1, psi.reshape(shape))
    evaluations = np.full(npairs, count)
    steps = np.zeros(len(psi), dtype=int)
    moved = np.zeros(len(psi))
    stretch = np.full(len(psi), 2.0)
    live = np.arange(len(psi))
    for k in range(1, opts.max_iterations + 1):
        m, at = len(live), pair[live]
        sl = (s @ of(right, at)).reshape(m, dim, r, n).swapaxes(1, 2).reshape(m, r * dim, n)
        near = np.linalg.eigh(of(left, at) @ sl)[1][..., -1]
        old = psi[live]
        near *= np.exp(-1j * np.angle(np.sum(old.conj() * near, axis=1)))[:, None]
        far = old + stretch[live, None] * (near - old)
        far /= np.linalg.norm(far, axis=1, keepdims=True)
        both = np.concatenate([near, far])
        twice = np.concatenate([at, at])
        v, s = _measure(of(k1, twice), of(k2, twice), p1, both.reshape(shape))
        evaluations += 2 * np.bincount(at, minlength=npairs)
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
        top = value.reshape(npairs, count).max(axis=1)[at]  # the best start of each pair
        hopeless = gain * (opts.max_iterations - k) < top - value[live]
        go = raised & (move > opts.step_tolerance) & ~hopeless
        live, s = live[go], s[go]
        if not live.size:
            break

    final = helstrom_pure(of(k1, pair), of(k2, pair), psi.reshape(shape), p1)
    found = []
    for j, values in enumerate(final.reshape(npairs, count)):
        best = j * count + int(np.argmax(values))
        meta = {
            "restarts": count,
            "iterations": int(steps[best]),
            "final_step": float(moved[best]),
            "evaluations": int(evaluations[j]) + count,
            "restart_values": values.tolist(),
        }
        found.append((psi[best], float(final[best]), meta))
    return found


def _random_starts(rng, count: int, dim: int):
    """``count`` random unit vectors on C^dim, each drawn as 2 dim real normals."""
    for _ in range(count):
        x = rng.standard_normal(2 * dim)
        x = x / np.linalg.norm(x)
        yield x[:dim] + 1j * x[dim:]


def _fixed_starts(probe_class: str, d: int) -> list:
    """The amplitude vectors every search of ``probe_class`` on input dimension d starts from."""
    if probe_class == "single":
        return [uniform_superposition(d).amplitudes, basis_probe(d, 0).amplitudes]
    return [max_entangled(d).amplitudes.reshape(-1), ket(d * d, 0)]  # |phi+> and |0>|0>


def optimize_pairs(
    pairs: list[tuple[Channel, Channel]],
    probe_class: str,
    opts: OptimizerOptions | None = None,
    p1: float = 0.5,
) -> list[DiscriminationResult]:
    """One search per channel pair, in input order, over ``probe_class`` probes, priors (p1, 1 - p1).

    ``probe_class`` is "single" or "general_entangled" (bipartite probes with
    dim_b = dim_in). The searches of pairs whose Kraus stacks share their
    shapes run as one see-saw stack, as many as fit under ``_STACK_ENTRIES``,
    so each step makes one batched ``eigh`` for all their live starts; result
    i is what the one-pair optimizer gives for ``pairs[i]``, bit for bit. Each
    search starts from, in order, the fixed starts of ``probe_class`` and
    ``opts.restarts`` random ones.
    """
    if probe_class not in ("single", "general_entangled"):
        raise ValueError(f"probe_class must be 'single' or 'general_entangled', got {probe_class!r}")
    groups: dict[tuple, list[int]] = {}
    for i, (ch1, ch2) in enumerate(pairs):
        _check_same_dims(ch1, ch2)
        groups.setdefault((ch1.kraus.shape, ch2.kraus.shape), []).append(i)
    p1 = _check_unit("p1", p1)
    opts = opts or OptimizerOptions()
    single = probe_class == "single"
    results: list = [None] * len(pairs)
    for ((n1, dim_out, d), (n2, _, _)), members in groups.items():
        dim_b = 1 if single else d
        starts = _fixed_starts(probe_class, d)
        starts.extend(_random_starts(np.random.default_rng(opts.seed), opts.restarts, d * dim_b))
        starts = np.array(starts, dtype=complex)
        per_start = (n1 + n2) * dim_out * dim_b * d * dim_b
        chunk = max(1, _STACK_ENTRIES // (len(starts) * per_start))
        for at in range(0, len(members), chunk):
            part = members[at : at + chunk]
            if len(part) == 1:  # views: a lone search allocates what it always has
                k1, k2 = (ch.kraus[None] for ch in pairs[part[0]])
            else:
                k1 = np.stack([pairs[i][0].kraus for i in part])
                k2 = np.stack([pairs[i][1].kraus for i in part])
            each = np.broadcast_to(starts, (len(part), *starts.shape))  # the same starts per pair
            for i, (psi, value, meta) in zip(part, _seesaw(k1, k2, p1, each, dim_b, opts)):
                probe = PureProbe(psi if single else psi.reshape(d, d))
                results[i] = DiscriminationResult(value, probe_class, probe, "optimizer", meta)
    return results


def optimize_single(
    ch1: Channel,
    ch2: Channel,
    opts: OptimizerOptions | None = None,
    p1: float = 0.5,
) -> DiscriminationResult:
    """Best success probability found over pure single-system probes, priors (p1, 1 - p1).

    The search always starts from the uniform superposition and |0>, so the
    result is never below those fixed-probe values, and from
    ``opts.restarts`` random probes.
    """
    return optimize_pairs([(ch1, ch2)], "single", opts, p1)[0]


def optimize_entangled(
    ch1: Channel,
    ch2: Channel,
    opts: OptimizerOptions | None = None,
    p1: float = 0.5,
) -> DiscriminationResult:
    """Best success probability over bipartite pure probes with dim_b = dim_in, priors (p1, 1 - p1).

    An ancilla larger than the channel input never helps (Schmidt rank of the
    probe is at most dim_in), so the B side is fixed to dim_in. Starts include
    the maximally entangled probe and the product probe |0>|0>.
    """
    return optimize_pairs([(ch1, ch2)], "general_entangled", opts, p1)[0]
