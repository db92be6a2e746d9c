"""Pure probe states fed into the unknown channel.

Single-system probes are unit vectors in C^d; bipartite probes are unit
vectors in C^dA (x) C^dB whose A factor passes through the channel. Mixed
probes are never needed: the trace-norm objective is convex, so its maximum
is always attained on a pure input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_complex, ket, projector, to_pairs

NORM_ATOL = 1e-12


def _unit(vec: np.ndarray, what: str) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if not abs(norm - 1.0) <= NORM_ATOL:  # also rejects nan and inf
        raise ValueError(f"{what} must be normalized: ||v|| = {norm!r}")
    out = vec.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SinglePureProbe:
    """A pure state on a single system."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = as_complex(self.amplitudes).reshape(-1)
        object.__setattr__(self, "amplitudes", _unit(v, "probe amplitude vector"))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> np.ndarray:
        return projector(self.amplitudes)

    def to_dict(self) -> dict:
        return {"dims": [self.dim], "amplitudes": to_pairs(self.amplitudes)}


@dataclass(frozen=True, eq=False)
class BipartitePureProbe:
    """A pure state on A (x) B; the channel acts on A, B is the ancilla."""

    dim_a: int
    dim_b: int
    amplitudes: np.ndarray

    def __post_init__(self):
        v = as_complex(self.amplitudes).reshape(-1)
        if v.size != self.dim_a * self.dim_b:
            raise ValueError(
                f"amplitude vector of length {v.size} does not match "
                f"dims ({self.dim_a}, {self.dim_b})"
            )
        object.__setattr__(self, "amplitudes", _unit(v, "probe amplitude vector"))

    def density(self) -> np.ndarray:
        return projector(self.amplitudes)

    def to_dict(self) -> dict:
        return {"dims": [self.dim_a, self.dim_b], "amplitudes": to_pairs(self.amplitudes)}


def bloch_qubit(theta: float, delta: float) -> SinglePureProbe:
    """Qubit probe cos(theta/2)|0> + e^(i*delta) sin(theta/2)|1>."""
    v = np.array(
        [np.cos(theta / 2.0), np.exp(1j * delta) * np.sin(theta / 2.0)], dtype=complex
    )
    return SinglePureProbe(v / np.linalg.norm(v))


def uniform_superposition(d: int) -> SinglePureProbe:
    """The balanced probe (1, 1, ..., 1)/sqrt(d)."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return SinglePureProbe(np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def basis_probe(d: int, index: int = 0) -> SinglePureProbe:
    """Computational basis probe |index>."""
    return SinglePureProbe(ket(d, index))


def max_entangled(d: int) -> BipartitePureProbe:
    """Maximally entangled probe (1/sqrt(d)) sum_i |i>|i>."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return BipartitePureProbe(d, d, v)


def nonmax_qubit(g: float, z: float = 0.0) -> BipartitePureProbe:
    """Two-qubit probe sqrt(g)|00> + e^(i*z) sqrt(1-g)|11>, g in [0, 1].

    g = 1/2 is the maximally entangled point; g = 0 or 1 is a product state.
    """
    g = float(g)
    if not 0.0 <= g <= 1.0:
        raise ValueError(f"g must lie in [0, 1], got {g!r}")
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(g)
    v[3] = np.exp(1j * z) * np.sqrt(1.0 - g)
    return BipartitePureProbe(2, 2, v / np.linalg.norm(v))


def schmidt_pair(p: float) -> BipartitePureProbe:
    """Two-qubit probe sqrt(p)|00> + sqrt(1-p)|11> with p strictly inside (0, 1)."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie strictly in (0, 1), got {p!r}")
    v = np.zeros(4, dtype=complex)
    v[0] = np.sqrt(p)
    v[3] = np.sqrt(1.0 - p)
    return BipartitePureProbe(2, 2, v)


def zeta_probe(c1: complex, c2: complex) -> BipartitePureProbe:
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
    v = np.zeros(9, dtype=complex)
    v[0] = 1.0 / np.sqrt(2.0)
    v[4] = c1
    v[8] = c2
    return BipartitePureProbe(3, 3, v / np.linalg.norm(v))


def random_pure(dim: int, seed) -> SinglePureProbe:
    """Haar-random single-system probe (normalized complex Gaussian), deterministic per seed."""
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return SinglePureProbe(v / np.linalg.norm(v))


def random_bipartite(dim_a: int, dim_b: int, seed) -> BipartitePureProbe:
    """Haar-random bipartite probe on C^dim_a (x) C^dim_b."""
    if dim_a < 1 or dim_b < 1:
        raise ValueError("dimensions must be positive")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = dim_a * dim_b
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return BipartitePureProbe(dim_a, dim_b, v / np.linalg.norm(v))


def product_probe(a: SinglePureProbe, b: SinglePureProbe) -> BipartitePureProbe:
    """Product probe |a> (x) |b>; behaves exactly like the single-system probe |a>."""
    v = np.kron(a.amplitudes, b.amplitudes)
    return BipartitePureProbe(a.dim, b.dim, v)
