"""Pure probe states fed into the unknown channel.

A probe is its amplitude array. A 1-D array is a single-system unit vector
on C^d. A 2-D array is the (dim_a, dim_b) coefficient matrix c of the
bipartite probe sum_ij c_ij |i>|j> on C^dA (x) C^dB, with unit Frobenius
norm; the channel acts on the row index A, and B is the ancilla. Mixed
probes are never needed: the trace-norm objective is convex, so its maximum
is always attained on a pure input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex, check_dim, check_open_unit, check_unit, ket, to_pairs

NORM_ATOL = 1e-12


def _unit(vec: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= NORM_ATOL:  # also rejects nan and inf
        raise ValueError(f"{what} must be normalized: ||v|| = {norm!r}")
    out = vec.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class PureProbe:
    """A pure probe: a unit vector (single system) or a coefficient matrix (bipartite)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = as_complex(self.amplitudes)
        if a.ndim not in (1, 2) or a.size == 0:
            raise ValueError(f"probe amplitudes must be a vector or a matrix, got shape {a.shape}")
        object.__setattr__(self, "amplitudes", _unit(a, "probe amplitude vector"))

    def density(self) -> np.ndarray:
        v = self.amplitudes.reshape(-1)
        return np.outer(v, v.conj())

    def to_dict(self) -> dict:
        a = self.amplitudes
        return {"dims": list(a.shape), "amplitudes": to_pairs(a.reshape(-1))}


def _amplitudes(probe: PureProbe, ndim: int) -> np.ndarray:
    """The amplitudes of a single-system probe (ndim 1) or a bipartite one (ndim 2)."""
    if probe.amplitudes.ndim != ndim:
        kind = "single-system probe (a vector)" if ndim == 1 else "bipartite probe (a matrix)"
        raise ValueError(f"expected a {kind}, got amplitudes of shape {probe.amplitudes.shape}")
    return probe.amplitudes


def bloch_qubit(theta: float, delta: float) -> PureProbe:
    """Qubit probe cos(theta/2)|0> + e^(i*delta) sin(theta/2)|1>."""
    v = np.array(
        [np.cos(theta / 2.0), np.exp(1j * delta) * np.sin(theta / 2.0)], dtype=complex
    )
    return PureProbe(v / np.linalg.norm(v))


def uniform_superposition(d: int) -> PureProbe:
    """The balanced probe (1, 1, ..., 1)/sqrt(d)."""
    d = check_dim(d)
    return PureProbe(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def basis_probe(d: int, index: int = 0) -> PureProbe:
    """Computational basis probe |index>."""
    return PureProbe(ket(d, index))


def max_entangled(d: int) -> PureProbe:
    """Maximally entangled probe (1/sqrt(d)) sum_i |i>|i>, the matrix I/sqrt(d)."""
    d = check_dim(d)
    return PureProbe(np.eye(d) / np.sqrt(d))


def nonmax_qubit(g: float, z: float = 0.0) -> PureProbe:
    """Two-qubit probe sqrt(g)|00> + e^(i*z) sqrt(1-g)|11>, g in [0, 1].

    g = 1/2 is the maximally entangled point; g = 0 or 1 is a product state.
    """
    g = check_unit("g", g)
    v = np.diag([np.sqrt(g), np.exp(1j * z) * np.sqrt(1.0 - g)])
    return PureProbe(v / np.linalg.norm(v))


def schmidt_pair(p: float) -> PureProbe:
    """Two-qubit probe sqrt(p)|00> + sqrt(1-p)|11> with p strictly inside (0, 1)."""
    p = check_open_unit("p", p)
    return PureProbe(np.diag([np.sqrt(p), np.sqrt(1.0 - p)]))


def zeta_probe(c1: complex, c2: complex) -> PureProbe:
    """Qutrit-pair probe (1/sqrt(2))|00> + c1|11> + c2|22>.

    Normalization pins |c1|^2 + |c2|^2 = 1/2 (within 1e-10); the Schmidt
    coefficients are (1/sqrt(2), |c1|, |c2|).
    """
    c1 = complex(c1)
    c2 = complex(c2)
    weight = abs(c1) ** 2 + abs(c2) ** 2
    if abs(weight - 0.5) > 1e-10:
        raise ValueError(
            f"|c1|^2 + |c2|^2 must equal 1/2 within 1e-10, got {weight!r}"
        )
    v = np.diag([1.0 / np.sqrt(2.0), c1, c2])
    return PureProbe(v / np.linalg.norm(v))


def random_pure(dim: int, seed) -> PureProbe:
    """Haar-random single-system probe (normalized complex Gaussian), deterministic per seed."""
    dim = check_dim(dim)
    rng = np.random.default_rng(seed)  # a Generator passes through as it is
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureProbe(v / np.linalg.norm(v))


def random_bipartite(dim_a: int, dim_b: int, seed) -> PureProbe:
    """Haar-random bipartite probe on C^dim_a (x) C^dim_b."""
    dim_a, dim_b = check_dim(dim_a), check_dim(dim_b)
    rng = np.random.default_rng(seed)  # a Generator passes through as it is
    n = dim_a * dim_b
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return PureProbe((v / np.linalg.norm(v)).reshape(dim_a, dim_b))


def product_probe(a: PureProbe, b: PureProbe) -> PureProbe:
    """Product probe |a> (x) |b> of two single-system probes; behaves exactly like |a>."""
    return PureProbe(np.outer(_amplitudes(a, 1), _amplitudes(b, 1)))
