"""Shared test helpers: random inputs and independent references in plain numpy."""

import numpy as np

from chandiscrim.channels import Channel
from chandiscrim.linalg import hermitian_eig, to_pairs


def stinespring_channel(rng, dim_in: int, dim_out: int, branches: int) -> Channel:
    """A random channel: Kraus operators cut from an isometry C^dim_in -> C^(dim_out * branches)."""
    g = rng.standard_normal((dim_out * branches, dim_in))
    v, _ = np.linalg.qr(g + 1j * rng.standard_normal(g.shape))
    return Channel(v.reshape(branches, dim_out, dim_in))


def channel_to_dict(ch: Channel) -> dict:
    """Encode a channel in the JSON Kraus schema that ``channel_from_dict`` reads."""
    return {
        "dim_in": ch.dim_in,
        "dim_out": ch.dim_out,
        "kraus": [to_pairs(k) for k in ch.kraus],
    }


def projector(vec) -> np.ndarray:
    """Rank-one projector |v><v| for a (not necessarily normalized) vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    return np.outer(v, v.conj())


def partial_trace(m, dim_a: int, dim_b: int, keep: str = "A") -> np.ndarray:
    """Trace out one factor of a bipartite operator on C^dim_a (x) C^dim_b.

    ``keep`` selects the surviving subsystem, "A" or "B". The input must be
    square of size dim_a*dim_b; the full trace is preserved.
    """
    m = np.asarray(m, dtype=complex)
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ValueError(
            f"partial_trace expects a {n}x{n} matrix for dims ({dim_a},{dim_b}), "
            f"got {m.shape}"
        )
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    tag = keep.upper()
    if tag == "A":
        return np.einsum("abcb->ac", t)
    if tag == "B":
        return np.einsum("abac->bc", t)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    rng = np.random.default_rng(rng) if not isinstance(rng, np.random.Generator) else rng
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    # Fix the gauge so the distribution is exactly Haar.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def trace_norm_hermitian(a) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix, as ``helstrom`` takes it."""
    return float(np.abs(hermitian_eig(a)).sum())
