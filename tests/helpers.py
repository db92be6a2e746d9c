"""Shared test helpers."""

import numpy as np

from chandiscrim.channels import Channel


def stinespring_channel(rng, dim_in: int, dim_out: int, branches: int) -> Channel:
    """A random channel: Kraus operators cut from an isometry C^dim_in -> C^(dim_out * branches)."""
    g = rng.standard_normal((dim_out * branches, dim_in))
    v, _ = np.linalg.qr(g + 1j * rng.standard_normal(g.shape))
    return Channel(v.reshape(branches, dim_out, dim_in))
