"""Shared test helpers: random inputs, independent references in plain numpy, the CLI in-process."""

import contextlib
import io
import subprocess

import numpy as np

from chandiscrim.channels import Channel
from chandiscrim.cli import main
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


def run_main(*args):
    """``main`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())
