"""Noisy quantum channels as validated Kraus-operator CPTP maps.

Channel families covered: depolarizing, dephasing (plus its arbitrary-unitary
generalization), qubit amplitude damping, mixed-unitary ensembles (including
two built-in pairs used as discrimination witnesses), and erasure. A channel
keeps its Kraus operators as one read-only stack, ``Channel.kraus``, checked
at build time for trace preservation and complete positivity: one matrix
product gives sum_i K_i†K_i, one more the Choi matrix, and one ``eigvalsh``
its minimum eigenvalue. The depolarizing family scales Weyl operators that are
built once per dimension and kept read-only in a small cache.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (
    HERMITIAN_ATOL,
    as_complex,
    check_dim,
    check_open_unit,
    check_unitary,
    from_pairs,
    hermiticity_defect,
    ket,
)

# Entrywise tolerance on sum_i K_i†K_i = I and on the Choi minimum eigenvalue.
CPTP_ATOL = 1e-10

# State validation thresholds for apply()/apply_on_A().
STATE_TRACE_ATOL = 1e-10
STATE_EIG_FLOOR = -1e-10

# The ensemble weights of the built-in mixed-unitary pairs when none are given.
EQUAL_WEIGHTS = (1 / 3, 1 / 3, 1 / 3)


class CPTPError(ValueError):
    """Raised when a Kraus set fails trace preservation or complete positivity."""

    def __init__(self, message: str, tp_residual: float, choi_min_eigenvalue: float):
        super().__init__(message)
        self.tp_residual = tp_residual
        self.choi_min_eigenvalue = choi_min_eigenvalue


@dataclass(frozen=True, eq=False)
class Channel:
    """A CPTP map stored as its Kraus operators, stacked.

    ``kraus`` is a read-only (n, dim_out, dim_in) copy of the operators given
    (matrices or a stack), with sum_i K_i†K_i = I and a positive-semidefinite
    Choi matrix (both within ``CPTP_ATOL``); it indexes and iterates as the
    operators, and its shape gives ``dim_in`` and ``dim_out``.
    """

    kraus: np.ndarray

    def __post_init__(self):
        try:
            stack = np.array(self.kraus, dtype=complex)  # a copy: no caller array is shared
        except ValueError:
            shapes = [np.shape(k) for k in self.kraus]
            raise ValueError(f"Kraus operators must share one shape, got {shapes}") from None
        if stack.ndim != 3 or 0 in stack.shape:
            raise ValueError(
                f"Kraus operators must stack to a non-empty (n, dim_out, dim_in) array, "
                f"got shape {stack.shape}"
            )
        if not np.isfinite(stack).all():
            raise ValueError("Kraus operators must have finite entries")
        stack.setflags(write=False)
        object.__setattr__(self, "kraus", stack)

        # sum_i K_i†K_i = R†R for the Kraus operators stacked into rows R.
        rows = stack.reshape(-1, self.dim_in)
        tp = rows.conj().T @ rows
        tp_residual = float(np.max(np.abs(tp - np.eye(self.dim_in))))
        choi_min = float(np.linalg.eigvalsh(choi(self)).min())
        if tp_residual > CPTP_ATOL or choi_min < -CPTP_ATOL:
            raise CPTPError(
                f"Kraus set is not CPTP: sum K†K residual = {tp_residual:.3e}, "
                f"min Choi eigenvalue = {choi_min:.3e}",
                tp_residual=tp_residual,
                choi_min_eigenvalue=choi_min,
            )

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]


def _validate_state(rho, dim: int) -> np.ndarray:
    rho = as_complex(rho)
    if rho.shape != (dim, dim):
        raise ValueError(f"state has shape {rho.shape}, expected ({dim}, {dim})")
    if not np.isfinite(rho).all():
        raise ValueError("state must have finite entries")
    defect = hermiticity_defect(rho)
    if not defect <= HERMITIAN_ATOL:
        raise ValueError(f"state is not Hermitian (defect {defect:.3e})")
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > STATE_TRACE_ATOL:
        raise ValueError(f"state trace {tr!r} is not 1 within {STATE_TRACE_ATOL:.0e}")
    min_eig = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if min_eig < STATE_EIG_FLOOR:
        raise ValueError(f"state is not positive semidefinite (min eigenvalue {min_eig:.3e})")
    return rho


def shift_matrix(d: int) -> np.ndarray:
    """Cyclic shift X|j> = |j+1 mod d>."""
    x = np.zeros((d, d), dtype=complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1.0
    return x


def clock_matrix(d: int) -> np.ndarray:
    """Phase gate Z = diag(1, w, ..., w^(d-1)) with w = exp(2*pi*i/d)."""
    omega = np.exp(2j * np.pi / d)
    return np.diag(omega ** np.arange(d))


@functools.lru_cache(maxsize=8)
def _weyl_operators(d: int) -> np.ndarray:
    """The Weyl operators X^a Z^b other than the identity, (a, b) row-major; read-only."""
    x = shift_matrix(d)
    z = clock_matrix(d)
    ops = []
    for a in range(d):
        xa = np.linalg.matrix_power(x, a)
        for b in range(d):
            if a == 0 and b == 0:
                continue
            ops.append(xa @ np.linalg.matrix_power(z, b))
    out = np.stack(ops)
    out.setflags(write=False)
    return out


def make_depolarizing(d: int, q: float) -> Channel:
    """Depolarizing channel rho -> q*rho + (1-q)*I/d on C^d.

    The Kraus set uses the Weyl (generalized Pauli) operators X^a Z^b: the
    identity carries weight q + (1-q)/d^2 and every other Weyl operator
    carries (1-q)/d^2, which reproduces the affine action exactly.
    """
    d = check_dim(d)
    q = check_open_unit("q", q)
    w = (1.0 - q) / d**2
    kraus = (np.sqrt(q + w) * np.eye(d, dtype=complex), *(np.sqrt(w) * _weyl_operators(d)))
    return Channel(kraus)


def make_dephasing(d: int, r: float) -> Channel:
    """Dephasing channel rho -> r*rho + (1-r) Z rho Z† on C^d.

    Z is the clock matrix, non-Hermitian for d >= 3, so the second Kraus
    branch acts as Z rho Z†; for qubits this is the usual phase flip.
    """
    d = check_dim(d)
    r = check_open_unit("r", r)
    kraus = (np.sqrt(r) * np.eye(d, dtype=complex), np.sqrt(1.0 - r) * clock_matrix(d))
    return Channel(kraus)


def make_generalized_dephasing(u, r: float) -> Channel:
    """Unitary-mixing channel rho -> r*rho + (1-r) U rho U†."""
    u = as_complex(u)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 2:
        raise ValueError(f"u must be a square matrix of size at least 2, got shape {u.shape}")
    check_unitary("u", u)
    r = check_open_unit("r", r)
    d = u.shape[0]
    kraus = (np.sqrt(r) * np.eye(d, dtype=complex), np.sqrt(1.0 - r) * u)
    return Channel(kraus)


def make_amplitude_damping(mu: float) -> Channel:
    """Qubit amplitude damping with Kraus |0><0| + sqrt(mu)|1><1| and sqrt(1-mu)|0><1|."""
    mu = check_open_unit("mu", mu)
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(mu)]], dtype=complex)
    k1 = np.array([[0.0, np.sqrt(1.0 - mu)], [0.0, 0.0]], dtype=complex)
    return Channel((k0, k1))


def make_mixed_unitary(unitaries: Sequence, weights: Sequence[float]) -> Channel:
    """Mixed-unitary channel rho -> sum_k q_k U_k rho U_k†, Kraus set {sqrt(q_k) U_k}."""
    us = [as_complex(u) for u in unitaries]
    ws = [float(w) for w in weights]
    if len(us) != len(ws) or not us:
        raise ValueError("need equally many unitaries and weights, at least one")
    if any(not 0.0 < w < 1.0 for w in ws) and len(ws) > 1:
        raise ValueError("each weight must lie strictly in (0, 1)")
    if len(ws) == 1 and not 0.0 < ws[0] <= 1.0:
        raise ValueError("a single weight must be 1")
    if abs(sum(ws) - 1.0) > 1e-12:
        raise ValueError(f"weights must sum to 1, got {sum(ws)!r}")
    shape = us[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or not shape[0] or any(u.shape != shape for u in us):
        raise ValueError(
            f"ensemble members must be square matrices of one size, got shapes "
            f"{[u.shape for u in us]}"
        )
    for u in us:
        check_unitary("ensemble member", u)
    return Channel([np.sqrt(q) * u for q, u in zip(ws, us)])


def mixed_unitary_pair_d3(weights: Sequence[float] = EQUAL_WEIGHTS) -> tuple[Channel, Channel]:
    """Two qutrit mixed-unitary channels distinguishable only with entanglement.

    With X the cyclic shift and F = diag(-1, 1, 1) a sign flip on |0>, the
    first ensemble mixes {I, X, F} and the second {X†, XF, X†F}. No
    single-system probe separates them perfectly, a maximally entangled probe
    does not either, but a suitably weighted three-term entangled probe does.
    """
    x, flip = shift_matrix(3), np.diag([-1.0, 1.0, 1.0])
    first = [np.eye(3), x, flip]
    second = [x.T, x @ flip, x.T @ flip]
    return make_mixed_unitary(first, weights), make_mixed_unitary(second, weights)


def mixed_unitary_pair_d6(weights: Sequence[float] = EQUAL_WEIGHTS) -> tuple[Channel, Channel]:
    """Two dimension-6 mixed-unitary channels separated perfectly by |0>.

    Both ensembles mix transpositions of basis vectors: the first swaps |0>
    with |1> or |2| (or leaves it alone), the second swaps |0> with |3>, |4>
    or |5>. Probing with |0> maps the two channels onto orthogonal supports,
    while a maximally entangled probe provably cannot reach certainty.
    """

    def swap(i: int, j: int) -> np.ndarray:
        m = np.eye(6, dtype=complex)
        m[[i, j]] = m[[j, i]]
        return m

    first = [np.eye(6, dtype=complex), swap(0, 1), swap(0, 2)]
    second = [swap(0, 3), swap(0, 4), swap(0, 5)]
    return make_mixed_unitary(first, weights), make_mixed_unitary(second, weights)


def make_erasure(d: int, eps: float) -> Channel:
    """Erasure channel: transmit with probability eps, else emit the flag |e>.

    The output space is C^(d+1); the input embeds into the first d coordinates
    and |e> is the added last basis vector, orthogonal to every input state.
    """
    d = check_dim(d)
    eps = check_open_unit("eps", eps)
    embed = np.zeros((d + 1, d), dtype=complex)
    embed[:d, :] = np.eye(d)
    flag = ket(d + 1, d)
    kraus = [np.sqrt(eps) * embed]
    for i in range(d):
        kraus.append(np.sqrt(1.0 - eps) * np.outer(flag, ket(d, i).conj()))
    return Channel(kraus)


def apply(ch: Channel, rho) -> np.ndarray:
    """Apply the channel to a density matrix: sum_i K_i rho K_i†."""
    rho = _validate_state(rho, ch.dim_in)
    out = np.zeros((ch.dim_out, ch.dim_out), dtype=complex)
    for k in ch.kraus:
        out += k @ rho @ k.conj().T
    return out


def apply_on_A(ch: Channel, rho_ab, dim_b: int) -> np.ndarray:
    """Apply the channel to subsystem A of a bipartite state: sum (K (x) I) rho (K† (x) I)."""
    rho_ab = _validate_state(rho_ab, ch.dim_in * dim_b)
    eye_b = np.eye(dim_b, dtype=complex)
    out = np.zeros((ch.dim_out * dim_b,) * 2, dtype=complex)
    for k in ch.kraus:
        kb = np.kron(k, eye_b)
        out += kb @ rho_ab @ kb.conj().T
    return out


def choi(ch: Channel) -> np.ndarray:
    """Choi matrix (N (x) I)(|phi+><phi+|) with normalized maximally entangled input."""
    # (N (x) I)(|phi+><phi+|) = sum_i v_i v_i†: the branch (K_i (x) I)|phi+> is
    # row-major vec(K_i)/sqrt(d), and the rows v_i^T of one matrix give the sum.
    rows = ch.kraus.reshape(len(ch.kraus), -1) / np.sqrt(ch.dim_in)
    return rows.T @ rows.conj()


def channel_from_dict(data, name: str = "channel") -> Channel:
    """Build a channel from the JSON Kraus schema, validating CPTP on the way.

    Schema violations, non-finite entries included, raise ValueError; a
    well-formed but non-CPTP Kraus set raises CPTPError. ``name`` labels the
    channel in the message of a Kraus matrix that does not decode.
    """
    if not isinstance(data, dict):
        raise ValueError("channel JSON must be an object")
    missing = {"dim_in", "dim_out", "kraus"} - set(data)
    if missing:
        raise ValueError(f"channel JSON is missing keys: {sorted(missing)}")
    dim_in, dim_out = data["dim_in"], data["dim_out"]
    if any(not isinstance(n, int) or isinstance(n, bool) for n in (dim_in, dim_out)):
        raise ValueError("dim_in and dim_out must be integers")
    raw = data["kraus"]
    if not isinstance(raw, list) or not raw:
        raise ValueError("kraus must be a non-empty list of matrices")
    kraus = []
    for i, m in enumerate(raw):
        try:
            kraus.append(from_pairs(m))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{name}: malformed Kraus matrix {i}: {exc}") from exc
    for k in kraus:
        if k.ndim != 2 or k.shape != (dim_out, dim_in):
            raise ValueError(
                f"Kraus matrix of shape {k.shape} does not match "
                f"(dim_out, dim_in) = ({dim_out}, {dim_in})"
            )
    return Channel(kraus)
