"""Helstrom probabilities, closed-form distinguishability values, and bounds.

Two channels sampled with priors (p1, 1-p1) are distinguished in one shot by
feeding a probe through the unknown channel and measuring optimally; the
success probability is (1/2)(1 + ||p1 rho1 - p2 rho2||_1) over the evolved
states. For the built-in channel families the optimum over a probe class
reduces to a closed form; those formulas live here, next to a convex-hull
helper and trace-norm bounds for mixed-unitary channels, all cross-checkable
against the brute-force probe optimizer in :mod:`chandiscrim.optimize`.
``FAMILIES`` ties each CLI family to its parameters, its channel pair and
its closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .channels import (
    Channel,
    make_amplitude_damping,
    make_depolarizing,
    make_dephasing,
    make_erasure,
    make_generalized_dephasing,
    mixed_unitary_pair_d3,
    mixed_unitary_pair_d6,
)
from .linalg import (
    UNITARY_ATOL,
    as_complex,
    check_dim,
    hermitian_eig,
    is_unitary,
    unitary_eigenphases,
)
from .probes import (
    PureProbe,
    _amplitudes,
    basis_probe,
    bloch_qubit,
    max_entangled,
    nonmax_qubit,
    schmidt_pair,
    uniform_superposition,
)


@dataclass
class DiscriminationResult:
    """Outcome of one discrimination evaluation."""

    probability: float
    probe_class: str
    probe: PureProbe
    method: str = "fixed_probe"  # closed_form | optimizer | fixed_probe
    optimizer_meta: dict | None = None


def _check_unit(name: str, x) -> float:
    x = float(x)
    if not 0.0 <= x <= 1.0:  # also rejects nan
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def _check_noise(name: str, x1, x2) -> tuple[float, float]:
    """Both noise parameters of a closed form (q1 and q2 for ``name`` "q"), each in [0, 1]."""
    return _check_unit(f"{name}1", x1), _check_unit(f"{name}2", x2)


def helstrom(rho1, rho2, p1: float = 0.5) -> float:
    """Optimal success probability (1/2)(1 + ||p1 rho1 - p2 rho2||_1)."""
    rho1 = as_complex(rho1)
    rho2 = as_complex(rho2)
    if rho1.shape != rho2.shape:
        raise ValueError(f"state shapes differ: {rho1.shape} vs {rho2.shape}")
    if not (np.isfinite(rho1).all() and np.isfinite(rho2).all()):
        raise ValueError("states must have finite entries")
    p1 = _check_unit("p1", p1)
    diff = p1 * rho1 - (1.0 - p1) * rho2
    return 0.5 * (1.0 + float(np.abs(hermitian_eig(diff)).sum()))


def pure_difference(k1: np.ndarray, k2: np.ndarray, psi: np.ndarray, p1: float) -> np.ndarray:
    """The differences p1 rho1 - (1 - p1) rho2 of a stack of pure probes through two channels.

    ``k1`` and ``k2`` have shape (n_kraus, dim_out, dim_in). ``psi`` holds m
    probes: single-system probes as an (m, dim_in) array, or the coefficient
    matrices of bipartite probes as an (m, dim_in, dim_b) array. Returns m
    D x D matrices, D = dim_out * dim_b. Branch i of a channel maps a probe
    to (K_i (x) I)|psi>, the flattening of K_i @ psi; with the branches as
    the rows of B the evolved state is B^T B*.

    Each probe takes the same per-matrix BLAS calls whatever the stack around
    it, so matrix j equals that of probe j alone bit for bit. Nothing is
    checked here: channels and probes are validated when built, dimensions and
    p1 by the callers.
    """
    if psi.ndim == 2:  # a single-system probe is a bipartite one with dim_b = 1
        psi = psi[:, :, None]
    b1 = k1 @ psi[:, None]  # (m, n_kraus, dim_out, dim_b)
    b2 = k2 @ psi[:, None]
    b1 = b1.reshape(*b1.shape[:2], -1)  # one row per branch, flattened over (out, B)
    b2 = b2.reshape(*b2.shape[:2], -1)
    return p1 * (b1.swapaxes(1, 2) @ b1.conj()) - (1.0 - p1) * (b2.swapaxes(1, 2) @ b2.conj())


def helstrom_pure(k1: np.ndarray, k2: np.ndarray, psi: np.ndarray, p1: float) -> np.ndarray:
    """Helstrom probabilities of a stack of pure probes through two stacked Kraus sets.

    Takes the eigenvalues of the differences ``pure_difference`` forms (same
    arguments) and returns the m probabilities. Row j equals the value of
    probe j alone bit for bit, as LAPACK solves each matrix on its own.
    """
    return 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(pure_difference(k1, k2, psi, p1))).sum(axis=-1))


def _check_same_dims(ch1: Channel, ch2: Channel):
    if ch1.dim_in != ch2.dim_in or ch1.dim_out != ch2.dim_out:
        raise ValueError(
            f"channel dimensions differ: ({ch1.dim_in}->{ch1.dim_out}) vs "
            f"({ch2.dim_in}->{ch2.dim_out})"
        )


def _fixed_probe_value(ch1: Channel, ch2: Channel, psi: np.ndarray, p1: float) -> float:
    _check_same_dims(ch1, ch2)
    if psi.shape[0] != ch1.dim_in:
        raise ValueError(
            f"probe dimension {psi.shape[0]} does not match channel input {ch1.dim_in}"
        )
    p1 = _check_unit("p1", p1)
    return float(helstrom_pure(ch1.kraus, ch2.kraus, psi[None], p1)[0])


def discrim_fixed_single(
    ch1: Channel, ch2: Channel, probe: PureProbe, p1: float = 0.5
) -> DiscriminationResult:
    """Helstrom probability for a fixed single-system probe (a vector)."""
    p = _fixed_probe_value(ch1, ch2, _amplitudes(probe, 1), p1)
    return DiscriminationResult(p, probe_class="single", probe=probe)


def discrim_fixed_entangled(
    ch1: Channel, ch2: Channel, probe: PureProbe, p1: float = 0.5
) -> DiscriminationResult:
    """Helstrom probability for a fixed bipartite probe (a matrix), channel acting on A."""
    p = _fixed_probe_value(ch1, ch2, _amplitudes(probe, 2), p1)
    return DiscriminationResult(p, probe_class="general_entangled", probe=probe)


# ---------------------------------------------------------------------------
# Closed forms. All assume equal priors and are symmetric in the two noise
# parameters (only the absolute difference enters).
# ---------------------------------------------------------------------------


def depolarizing_single_closed(d: int, q1: float, q2: float) -> float:
    """Single-probe value (1/2)(1 + |q1-q2| (1 - 1/d)); the same for every pure probe."""
    d = check_dim(d)
    q1, q2 = _check_noise("q", q1, q2)
    return 0.5 * (1.0 + abs(q1 - q2) * (1.0 - 1.0 / d))


def depolarizing_maxent_closed(d: int, q1: float, q2: float) -> float:
    """Maximally entangled probe value (1/2)(1 + |q1-q2| (1 - 1/d^2))."""
    d = check_dim(d)
    q1, q2 = _check_noise("q", q1, q2)
    return 0.5 * (1.0 + abs(q1 - q2) * (1.0 - 1.0 / d**2))


def depolarizing_nonmax_closed(g: float, q1: float, q2: float) -> float:
    """Qubit probe sqrt(g)|00> + e^(iz) sqrt(1-g)|11>: value is z-independent.

    The trace-norm factor is 1/2 + (1/2) sqrt(1 + 12 g (1-g)), increasing in
    the entanglement of the probe and maximal at g = 1/2, where it reproduces
    the maximally entangled value.
    """
    g = _check_unit("g", g)
    q1, q2 = _check_noise("q", q1, q2)
    norm = 0.5 + 0.5 * np.sqrt(1.0 + 12.0 * g * (1.0 - g))
    return 0.5 * (1.0 + 0.5 * abs(q1 - q2) * norm)


def dephasing_closed(r1: float, r2: float) -> float:
    """Optimal value (1/2)(1 + |r1-r2|), reached by the uniform superposition probe."""
    r1, r2 = _check_noise("r", r1, r2)
    return 0.5 * (1.0 + abs(r1 - r2))


def hull_min_distance(phases: Sequence[float]) -> float:
    """Distance from the origin to the convex hull of unit-circle points.

    ``phases`` are angles in radians. Returns 0 when the origin lies inside
    or on the hull. With the points sorted by angle, the origin is outside
    the hull exactly when some arc gap between consecutive points exceeds pi;
    the nearest hull point is then the midpoint of the chord closing that
    gap, at distance cos(s/2) for chord arc-length s = 2*pi - gap.
    """
    pts = np.mod(np.asarray(list(phases), dtype=float), 2.0 * np.pi)
    if pts.size == 0:
        raise ValueError("need at least one phase")
    pts = np.sort(pts)
    keep = np.ones(pts.size, dtype=bool)
    keep[1:] = np.diff(pts) > 1e-12
    # 0 and 2*pi are the same point
    if pts.size > 1 and (2.0 * np.pi - pts[-1]) + pts[0] <= 1e-12:
        keep[-1] = False
    pts = pts[keep]
    gaps = np.diff(pts, append=pts[0] + 2.0 * np.pi)
    widest = float(gaps.max())
    if widest <= np.pi:
        return 0.0
    return float(np.cos((2.0 * np.pi - widest) / 2.0))


def gen_dephasing_closed(u, r1: float, r2: float) -> float:
    """Optimal single-probe value for channels r*rho + (1-r) U rho U†.

    Equals (1/2)(1 + |r1-r2| sqrt(1 - m^2)) where m is the distance from the
    origin to the convex hull of the eigenphase points of U; entangled probes
    cannot improve on it.
    """
    r1, r2 = _check_noise("r", r1, r2)
    return _hull_value(unitary_eigenphases(u), r1, r2)


def _hull_value(eig, r1: float, r2: float) -> float:
    m = hull_min_distance([theta for theta, _ in eig])
    return 0.5 * (1.0 + abs(r1 - r2) * np.sqrt(max(0.0, 1.0 - m * m)))


def gen_dephasing_maxent_closed(u, r1: float, r2: float) -> float:
    """Maximally entangled probe value (1/2)(1 + |r1-r2| sqrt(1 - |Tr U|^2 / d^2)).

    For qubits this equals the single-probe optimum; for d >= 3 it can fall
    strictly below it, since |Tr U|/d is the centroid of the eigenphase
    points, not their hull point nearest the origin.
    """
    r1, r2 = _check_noise("r", r1, r2)
    u = as_complex(u)
    overlap = abs(np.trace(u)) ** 2 / u.shape[0] ** 2
    return 0.5 * (1.0 + abs(r1 - r2) * np.sqrt(max(0.0, 1.0 - overlap)))


def hull_nearest_weights(phases: Sequence[float]) -> np.ndarray:
    """Convex weights on unit-circle points realizing the hull point nearest the origin.

    Returns w >= 0 with sum(w) = 1 such that |sum_k w_k e^(i phase_k)| equals
    ``hull_min_distance(phases)``. When the origin lies inside the hull a
    triangle (or antipodal pair) of points absorbs all the weight; when it
    lies outside, the two points bounding the widest arc gap share the weight
    equally (the nearest hull point is that chord's midpoint).
    """
    raw = np.mod(np.asarray(list(phases), dtype=float), 2.0 * np.pi)
    if raw.size == 0:
        raise ValueError("need at least one phase")
    order = np.argsort(raw)
    sorted_phases = raw[order]
    weights = np.zeros(raw.size)
    if raw.size == 1:
        weights[0] = 1.0
        return weights

    gaps = np.diff(sorted_phases, append=sorted_phases[0] + 2.0 * np.pi)
    widest = int(np.argmax(gaps))
    if gaps[widest] > np.pi:
        weights[order[widest]] += 0.5
        weights[order[(widest + 1) % raw.size]] += 0.5
        return weights

    pts = np.exp(1j * sorted_phases)
    # Antipodal pair through the origin.
    for i in range(raw.size):
        for j in range(i + 1, raw.size):
            if abs(pts[i] + pts[j]) <= 1e-9:
                weights[order[i]] = weights[order[j]] = 0.5
                return weights
    # Otherwise some triangle of points contains the origin (Caratheodory).
    for i in range(raw.size):
        for j in range(i + 1, raw.size):
            for k in range(j + 1, raw.size):
                a = np.array(
                    [
                        [pts[i].real, pts[j].real, pts[k].real],
                        [pts[i].imag, pts[j].imag, pts[k].imag],
                        [1.0, 1.0, 1.0],
                    ]
                )
                try:
                    w = np.linalg.solve(a, np.array([0.0, 0.0, 1.0]))
                except np.linalg.LinAlgError:
                    continue
                if np.all(w >= -1e-12):
                    w = np.clip(w, 0.0, None)
                    w /= w.sum()
                    weights[order[i]], weights[order[j]], weights[order[k]] = w
                    return weights
    raise ValueError("could not decompose the nearest hull point into convex weights")


def gen_dephasing_optimal_probe(u) -> PureProbe:
    """A single-system probe attaining the generalized-dephasing optimum.

    Mixes eigenvectors of the unitary with amplitudes sqrt(w_k), where the
    weights place the convex combination of eigenphase points as close to the
    origin as possible.
    """
    return _hull_probe(unitary_eigenphases(u))


def _hull_probe(eig) -> PureProbe:
    weights = hull_nearest_weights([theta for theta, _ in eig])
    v = sum(np.sqrt(w) * vec for w, (_, vec) in zip(weights, eig))
    return PureProbe(v / np.linalg.norm(v))


def _ordered_mu(mu1: float, mu2: float) -> tuple[float, float]:
    mu1, mu2 = float(mu1), float(mu2)
    for name, v in (("mu1", mu1), ("mu2", mu2)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie strictly in (0, 1), got {v!r}")
    return (mu1, mu2) if mu1 >= mu2 else (mu2, mu1)


def ad_single_closed(mu1: float, mu2: float) -> tuple[float, float]:
    """Optimal single-probe value and optimizing Bloch angle for amplitude damping.

    Two regimes, split by c = (sqrt(mu1) + sqrt(mu2))^2:
    c >= 1/2 -> value (1/2)(1 + (mu1 - mu2)) at theta = pi;
    c <  1/2 -> value (1/2)(1 + (sqrt(mu1) - sqrt(mu2)) / (2 sqrt(1 - c)))
                at theta = 2 arcsin sqrt(1 / (2 (1 - c))).
    Both branches agree on the boundary.
    """
    mu1, mu2 = _ordered_mu(mu1, mu2)
    root_sum_sq = (np.sqrt(mu1) + np.sqrt(mu2)) ** 2
    if root_sum_sq >= 0.5:
        return 0.5 * (1.0 + (mu1 - mu2)), float(np.pi)
    gap = np.sqrt(mu1) - np.sqrt(mu2)
    value = 0.5 * (1.0 + gap / (2.0 * np.sqrt(1.0 - root_sum_sq)))
    theta = 2.0 * np.arcsin(np.sqrt(1.0 / (2.0 * (1.0 - root_sum_sq))))
    return float(value), float(theta)


def ad_maxent_closed(mu1: float, mu2: float) -> float:
    """Maximally entangled probe value for two amplitude damping channels.

    (1/2)(1 + (1/4)(mu1-mu2) + (1/4) sqrt((mu1-mu2)^2 + 4 (sqrt(mu1)-sqrt(mu2))^2));
    the same for every maximally entangled probe.
    """
    mu1, mu2 = _ordered_mu(mu1, mu2)
    diff = mu1 - mu2
    root_gap = np.sqrt(mu1) - np.sqrt(mu2)
    return float(
        0.5 * (1.0 + 0.25 * diff + 0.25 * np.sqrt(diff**2 + 4.0 * root_gap**2))
    )


def ad_nonmax_norm(p: float, mu1: float, mu2: float) -> float:
    """Trace norm of the evolved-state difference for probe sqrt(p)|00> + sqrt(1-p)|11>.

    (1-p)(mu1-mu2) + (1-p) sqrt((mu1-mu2)^2 + 4 p/(1-p) (sqrt(mu1)-sqrt(mu2))^2).
    At p = 1/2 this reduces to the maximally entangled trace norm; the
    corresponding probability is 1/2 + (norm)/4.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    mu1, mu2 = _ordered_mu(mu1, mu2)
    diff = mu1 - mu2
    root_gap = np.sqrt(mu1) - np.sqrt(mu2)
    return float(
        (1.0 - p) * diff
        + (1.0 - p) * np.sqrt(diff**2 + 4.0 * (p / (1.0 - p)) * root_gap**2)
    )


def ad_nonmax_closed(p: float, mu1: float, mu2: float) -> float:
    """Probability 1/2 + ||difference||/4 for the Schmidt-pair probe."""
    return 0.5 + 0.25 * ad_nonmax_norm(p, mu1, mu2)


def erasure_closed(eps1: float, eps2: float) -> float:
    """Value (1/2)(1 + |eps1 - eps2|), independent of the probe, entangled or not."""
    eps1, eps2 = _check_noise("eps", eps1, eps2)
    return 0.5 * (1.0 + abs(eps1 - eps2))


# ---------------------------------------------------------------------------
# Trace-norm bounds for mixed-unitary channel pairs sharing weights.
# ---------------------------------------------------------------------------


def mixed_unitary_single_bound(
    pairs: Iterable[tuple[np.ndarray, np.ndarray, float]], probe: PureProbe
) -> float:
    """Upper bound 2 sum_k q_k sqrt(1 - |<d| V_k† W_k |d>|^2) on the trace norm.

    ``pairs`` iterates (V_k, W_k, q_k). Equals 2 only if the probe perfectly
    separates every unitary pair at once. Returns a trace-norm-scale value,
    not a probability.
    """
    d = _amplitudes(probe, 1)
    total = 0.0
    for v, w, q in pairs:
        v = as_complex(v)
        w = as_complex(w)
        if v.shape != w.shape or v.shape[0] != d.size:
            raise ValueError("unitary pair dimensions must match the probe")
        overlap = abs(np.vdot(d, v.conj().T @ w @ d)) ** 2
        total += float(q) * np.sqrt(max(0.0, 1.0 - overlap))
    return 2.0 * total


def mixed_unitary_maxent_bound(
    pairs: Iterable[tuple[np.ndarray, np.ndarray, float]]
) -> float:
    """Upper bound 2 sum_k q_k sqrt(1 - |Tr(V_k† W_k)|^2 / d^2) for the probe |phi+>.

    Any pair with Tr(V_k† W_k) != 0 pushes the bound strictly below 2, so a
    maximally entangled probe cannot reach certainty. Trace-norm scale.
    """
    total = 0.0
    for v, w, q in pairs:
        v = as_complex(v)
        w = as_complex(w)
        dim = v.shape[0]
        overlap = abs(np.trace(v.conj().T @ w)) ** 2 / dim**2
        total += float(q) * np.sqrt(max(0.0, 1.0 - overlap))
    return 2.0 * total


def ensemble_pairs(ch1: Channel, ch2: Channel) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Zip two mixed-unitary channels with shared weights into (V, W, q) triples.

    A branch K = sqrt(q) U on C^d has q = ||K||_F^2 / d, so the weights come
    from the Kraus operators. Both channels must give the same weights, and
    every branch divided by sqrt(q) must be unitary within ``UNITARY_ATOL``.
    """
    _check_same_dims(ch1, ch2)
    w1, w2 = (np.sum(np.abs(ch.kraus) ** 2, axis=(1, 2)) / ch.dim_in for ch in (ch1, ch2))
    if len(w1) != len(w2) or np.any(np.abs(w1 - w2) > 1e-12):
        raise ValueError("the two ensembles must share the same weights")
    out = []
    for k1, k2, q in zip(ch1.kraus, ch2.kraus, w1):
        v, w = k1 / np.sqrt(q), k2 / np.sqrt(q)
        if not (is_unitary(v) and is_unitary(w)):
            raise ValueError(
                f"both channels must be mixed-unitary: a branch over sqrt(q) is not unitary "
                f"within {UNITARY_ATOL:.0e}"
            )
        out.append((v, w, float(q)))
    return out


# ---------------------------------------------------------------------------
# The CLI channel families. Entries look constructors and closed forms up by
# name when called, so a caller that rebinds a module name (a tracer, a test
# double) sees every call.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One CLI channel family: its parameters, its channel pair and its closed forms.

    ``params`` maps each scalar parameter to its default (None: required).
    ``make(values)`` builds the validated pair from a dict holding those
    parameters and returns ``(ch1, ch2, report)``, ``report`` being the
    parameters as shown to the user. Non-scalar inputs travel in the same
    dict, and ``inputs`` names the ones ``make`` reads: the unitary ``u`` of
    gen-dephasing and the mixed-unitary ``weights``. ``closed`` maps
    "single", "maxent" and "nonmax" to functions of the same dict returning
    ``(probability, probe, detail)``; they assume equal priors. The "nonmax"
    form also reads ``probe_param`` from the dict.
    """

    params: Mapping[str, float | None]
    make: Callable[[dict], tuple[Channel, Channel, dict]]
    closed: Mapping[str, Callable[[dict], tuple]] = field(default_factory=dict)
    probe_param: str | None = None
    inputs: tuple[str, ...] = ()


def _dim(values: dict) -> int:
    return check_dim(values["d"])


def _dim_pair(v: dict, make, a: str, b: str):
    """The channels make(d, v[a]) and make(d, v[b]) and their report."""
    d = _dim(v)
    return make(d, v[a]), make(d, v[b]), {"d": d, a: v[a], b: v[b]}


def _make_gen_dephasing(v: dict):
    if "u" not in v:
        raise ValueError("family 'gen-dephasing' requires --phases or --unitary-json")
    u = v["u"]
    report = {"d": u.shape[0], "r1": v["r1"], "r2": v["r2"]}
    return make_generalized_dephasing(u, v["r1"]), make_generalized_dephasing(u, v["r2"]), report


def _make_amplitude_damping(v: dict):
    report = {"mu1": v["mu1"], "mu2": v["mu2"]}
    return make_amplitude_damping(v["mu1"]), make_amplitude_damping(v["mu2"]), report


def _make_mixed_unitary(v: dict, dim: int):
    weights = v.get("weights", (1 / 3, 1 / 3, 1 / 3))
    maker = mixed_unitary_pair_d3 if dim == 3 else mixed_unitary_pair_d6
    ch1, ch2 = maker(weights)
    return ch1, ch2, {"d": dim, "weights": list(weights)}


def _depolarizing_nonmax(v: dict):
    if _dim(v) != 2:
        raise ValueError("the nonmax closed form for depolarizing needs d=2")
    value = depolarizing_nonmax_closed(v["g"], v["q1"], v["q2"])
    return value, nonmax_qubit(v["g"], v.get("z", 0.0)), {}


def _gen_dephasing_single(v: dict):
    """The value and its probe from one eigen-solve of the unitary."""
    r1, r2 = _check_noise("r", v["r1"], v["r2"])
    eig = unitary_eigenphases(v["u"])
    return _hull_value(eig, r1, r2), _hull_probe(eig), {}


def _ad_single(v: dict):
    value, theta = ad_single_closed(v["mu1"], v["mu2"])
    return value, bloch_qubit(theta, 0.0), {"theta_opt": theta}


FAMILIES: dict[str, Family] = {
    "depolarizing": Family(
        params={"d": 2, "q1": None, "q2": None},
        make=lambda v: _dim_pair(v, make_depolarizing, "q1", "q2"),
        closed={
            "single": lambda v: (
                depolarizing_single_closed(_dim(v), v["q1"], v["q2"]),
                basis_probe(_dim(v), 0),
                {},
            ),
            "maxent": lambda v: (
                depolarizing_maxent_closed(_dim(v), v["q1"], v["q2"]),
                max_entangled(_dim(v)),
                {},
            ),
            "nonmax": _depolarizing_nonmax,
        },
        probe_param="g",
    ),
    "dephasing": Family(
        params={"d": 2, "r1": None, "r2": None},
        make=lambda v: _dim_pair(v, make_dephasing, "r1", "r2"),
        closed={
            "single": lambda v: (
                dephasing_closed(v["r1"], v["r2"]), uniform_superposition(_dim(v)), {}
            ),
            "maxent": lambda v: (
                dephasing_closed(v["r1"], v["r2"]), max_entangled(_dim(v)), {}
            ),
        },
    ),
    "gen-dephasing": Family(
        params={"r1": None, "r2": None},
        make=_make_gen_dephasing,
        inputs=("u",),
        closed={
            "single": _gen_dephasing_single,
            "maxent": lambda v: (
                gen_dephasing_maxent_closed(v["u"], v["r1"], v["r2"]),
                max_entangled(v["u"].shape[0]),
                {},
            ),
        },
    ),
    "amplitude-damping": Family(
        params={"mu1": None, "mu2": None},
        make=_make_amplitude_damping,
        closed={
            "single": _ad_single,
            "maxent": lambda v: (ad_maxent_closed(v["mu1"], v["mu2"]), max_entangled(2), {}),
            "nonmax": lambda v: (
                ad_nonmax_closed(v["p"], v["mu1"], v["mu2"]), schmidt_pair(v["p"]), {}
            ),
        },
        probe_param="p",
    ),
    "erasure": Family(
        params={"d": 2, "eps1": None, "eps2": None},
        make=lambda v: _dim_pair(v, make_erasure, "eps1", "eps2"),
        closed={
            "single": lambda v: (
                erasure_closed(v["eps1"], v["eps2"]), basis_probe(_dim(v), 0), {}
            ),
            "maxent": lambda v: (
                erasure_closed(v["eps1"], v["eps2"]), max_entangled(_dim(v)), {}
            ),
        },
    ),
    "mixed-unitary-d3": Family(
        params={}, make=lambda v: _make_mixed_unitary(v, 3), inputs=("weights",)
    ),
    "mixed-unitary-d6": Family(
        params={}, make=lambda v: _make_mixed_unitary(v, 6), inputs=("weights",)
    ),
}
