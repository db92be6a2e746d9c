"""Dense complex linear algebra for small quantum systems.

Everything here works on plain ``numpy`` arrays of ``complex128``. Matrices
are row-major and never exceed a few dozen rows (bipartite systems up to
local dimension 6), so clarity and numerical robustness win over asymptotic
cleverness.
"""

from __future__ import annotations

import numpy as np

# Absolute entrywise tolerances for structural checks.
HERMITIAN_ATOL = 1e-10
UNITARY_ATOL = 1e-10

# Off-diagonal residual accepted when diagonalizing a unitary.
_UNITARY_DIAG_RESIDUAL = 1e-8
_UNITARY_DIAG_ATTEMPTS = 8


def as_complex(a) -> np.ndarray:
    return np.asarray(a, dtype=complex)


def hermiticity_defect(a) -> float:
    """Largest entrywise deviation of ``a`` from its own adjoint."""
    a = as_complex(a)
    return float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0


def unitarity_defect(u) -> float:
    """Largest entrywise deviation of ``u†u`` from the identity."""
    u = as_complex(u)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))))


def is_unitary(u) -> bool:
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    return unitarity_defect(u) <= UNITARY_ATOL


def check_dim(d) -> int:
    """The dimension ``d`` as an int: an integral value of at least 2 (3.0 is 3)."""
    if not float(d).is_integer():  # also rejects nan and inf
        raise ValueError(f"d must be an integer, got {d}")
    d = int(d)
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    return d


def check_unit(name: str, x) -> float:
    """``x`` as a float in [0, 1]: a prior, or a noise parameter of a closed form."""
    x = float(x)
    if not 0.0 <= x <= 1.0:  # also rejects nan
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return x


def check_open_unit(name: str, x) -> float:
    """``x`` as a float strictly inside (0, 1): a channel's noise strength, a Schmidt weight."""
    x = float(x)
    if not 0.0 < x < 1.0:  # also rejects nan
        raise ValueError(f"{name} must lie strictly in (0, 1), got {x!r}")
    return x


def check_unitary(name: str, u) -> None:
    """Raise ``ValueError`` unless the square matrix ``u`` is unitary within ``UNITARY_ATOL``."""
    defect = unitarity_defect(u)
    if not defect <= UNITARY_ATOL:  # also rejects nan
        raise ValueError(f"{name} is not unitary within {UNITARY_ATOL:.0e} (residual {defect:.3e})")


def ket(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in dimension ``dim`` (see ``check_dim``)."""
    dim = check_dim(dim)
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def hermitian_eig(a) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix, descending.

    The input is required to be Hermitian within ``HERMITIAN_ATOL`` and is
    symmetrized as (A + A†)/2 before solving to absorb roundoff.
    """
    a = as_complex(a)
    defect = hermiticity_defect(a)
    if not defect <= HERMITIAN_ATOL:  # also rejects nan
        raise ValueError(
            f"matrix is not Hermitian: max|A - A†| = {defect:.3e} "
            f"exceeds {HERMITIAN_ATOL:.0e}"
        )
    # eigh, not eigvalsh: the two differ in the last bits, and the Helstrom
    # values that rest on this call are kept bit for bit.
    return np.linalg.eigh((a + a.conj().T) / 2.0)[0][::-1]


def unitary_eigenphases(u) -> list[tuple[float, np.ndarray]]:
    """Eigenphases and orthonormal eigenvectors of a unitary matrix.

    Returns ``[(theta_0, v_0), ...]`` with phases in [0, 2*pi), sorted
    ascending, such that ``u @ v_k == exp(1j*theta_k) * v_k``.

    A unitary is normal, so it shares an eigenbasis with the Hermitian
    combination cos(a)(U+U†)/2 + sin(a)(U-U†)/(2i). We diagonalize that
    combination for an angle ``a`` drawn from a fixed seed and keep the basis
    if it diagonalizes U itself; a degenerate draw (two distinct eigenphases
    collapsing onto one eigenvalue of the combination) is retried with the
    next angle. The phases do not depend on the angle.
    """
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError(f"unitary_eigenphases expects a square matrix, got {u.shape}")
    check_unitary("u", u)
    rng = np.random.default_rng(0)
    re = (u + u.conj().T) / 2.0
    im = (u - u.conj().T) / 2.0j
    for _ in range(_UNITARY_DIAG_ATTEMPTS):
        alpha = rng.uniform(0.0, 2.0 * np.pi)
        h = np.cos(alpha) * re + np.sin(alpha) * im
        _, v = np.linalg.eigh(h)
        d = v.conj().T @ u @ v
        if np.max(np.abs(d - np.diag(np.diagonal(d)))) < _UNITARY_DIAG_RESIDUAL:
            phases = np.mod(np.angle(np.diagonal(d)), 2.0 * np.pi)
            order = np.argsort(phases)
            return [(float(phases[k]), v[:, k].copy()) for k in order]
    raise ValueError(
        f"failed to resolve a common eigenbasis for the unitary after "
        f"{_UNITARY_DIAG_ATTEMPTS} attempts"
    )


def to_pairs(a) -> list:
    """Encode a complex vector or matrix as nested [re, im] pairs (row-major)."""
    a = as_complex(a)
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    if a.ndim == 2:
        return [[[float(z.real), float(z.imag)] for z in row] for row in a]
    raise ValueError(f"expected a vector or matrix, got ndim={a.ndim}")


def from_pairs(data) -> np.ndarray:
    """Decode nested [re, im] pairs into a complex vector or matrix."""
    arr = np.asarray(data, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"[re, im] pairs must be finite, got {arr[~np.isfinite(arr)][0]}")
    if arr.ndim == 2 and arr.shape[-1] == 2:
        return arr[:, 0] + 1j * arr[:, 1]
    if arr.ndim == 3 and arr.shape[-1] == 2:
        return arr[:, :, 0] + 1j * arr[:, :, 1]
    raise ValueError(
        "expected nested [re, im] pairs encoding a vector or matrix, "
        f"got array of shape {arr.shape}"
    )
