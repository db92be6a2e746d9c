import numpy as np
import pytest

from chandiscrim.linalg import from_pairs, hermitian_eig, ket, to_pairs, unitary_eigenphases
from chandiscrim.probes import (
    PureProbe,
    basis_probe,
    max_entangled,
    nonmax_qubit,
    product_probe,
    random_pure,
    zeta_probe,
)
from helpers import partial_trace, projector, random_unitary, trace_norm_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


# The tensor-product layout of probes: a product probe |a>|b> is the Kronecker
# product of its factors, and a bipartite probe is acted on through its row index A.


def _product_of_basis_probes(i: int, j: int):
    a, b = basis_probe(2, i), basis_probe(2, j)
    probe = product_probe(a, b)
    np.testing.assert_array_equal(
        probe.amplitudes.reshape(-1), np.kron(a.amplitudes, b.amplitudes)
    )
    np.testing.assert_array_equal(probe.density(), np.kron(a.density(), b.density()))
    return probe


def test_tensor_identity():
    total = sum(_product_of_basis_probes(i, j).density() for i in (0, 1) for j in (0, 1))
    np.testing.assert_allclose(total, np.kron(np.eye(2), np.eye(2)))
    np.testing.assert_allclose(total, np.eye(4))


def test_tensor_basis_projectors():
    out = _product_of_basis_probes(0, 1).density()
    np.testing.assert_allclose(out, np.kron(projector(ket(2, 0)), projector(ket(2, 1))))
    np.testing.assert_allclose(out, np.diag([0, 1, 0, 0.0]))


def test_tensor_sigma_z_on_phi_plus():
    phi = max_entangled(2).amplitudes
    out = (SZ @ phi).reshape(-1)  # sigma_z on A is a left product on the coefficient matrix
    np.testing.assert_allclose(out, np.kron(SZ, np.eye(2)) @ phi.reshape(-1), atol=1e-15)
    np.testing.assert_allclose(out, np.array([1, 0, 0, -1]) / np.sqrt(2), atol=1e-15)
    # the same on a product probe acts on its A factor alone
    a, b = random_pure(2, 3), random_pure(3, 4)
    flipped = product_probe(PureProbe(SZ @ a.amplitudes), b).amplitudes.reshape(-1)
    np.testing.assert_allclose(
        flipped, np.kron(SZ, np.eye(3)) @ product_probe(a, b).amplitudes.reshape(-1), atol=1e-15
    )


def test_partial_trace_phi_plus():
    rho = max_entangled(2).density()
    np.testing.assert_allclose(partial_trace(rho, 2, 2, "A"), np.eye(2) / 2, atol=1e-15)
    np.testing.assert_allclose(partial_trace(rho, 2, 2, "B"), np.eye(2) / 2, atol=1e-15)


def test_partial_trace_product_state():
    rng = np.random.default_rng(11)
    rho_a = projector(random_pure(3, rng).amplitudes)
    rho_b = projector(random_pure(2, rng).amplitudes)
    np.testing.assert_allclose(
        partial_trace(np.kron(rho_a, rho_b), 3, 2, "A"), rho_a, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(np.kron(rho_a, rho_b), 3, 2, "B"), rho_b, atol=1e-12
    )


def test_partial_trace_three_term_schmidt():
    rho = zeta_probe(0.5, 0.5).density()
    np.testing.assert_allclose(
        partial_trace(rho, 3, 3, "B"), np.diag([0.5, 0.25, 0.25]), atol=1e-15
    )


def test_partial_trace_preserves_trace_and_checks_dims():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert partial_trace(m, 2, 3, "A").trace() == pytest.approx(m.trace(), abs=1e-12)
    with pytest.raises(ValueError):
        partial_trace(m, 2, 2, "A")
    with pytest.raises(ValueError):
        partial_trace(m, 2, 3, "C")


def test_hermitian_eig_diagonal():
    np.testing.assert_allclose(hermitian_eig(np.diag([3.0, 1.0, 2.0])), [3, 2, 1])


def test_hermitian_eig_pauli_x():
    np.testing.assert_allclose(hermitian_eig(SX), [1, -1], atol=1e-15)


def test_hermitian_eig_half_entangled_difference():
    # |phi+><phi+| minus I/2 (x) (reduced state): spectrum (3/4, -1/4, -1/4, -1/4)
    probe = nonmax_qubit(0.5, 0.0)
    rho = probe.density()
    reduced = partial_trace(rho, 2, 2, "B")
    f = rho - np.kron(np.eye(2) / 2, reduced)
    np.testing.assert_allclose(hermitian_eig(f), [0.75, -0.25, -0.25, -0.25], atol=1e-12)
    assert trace_norm_hermitian(f) == pytest.approx(1.5, abs=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_hermitian_eig_residual_and_reconstruction():
    rng = np.random.default_rng(7)
    for d in (2, 4, 6):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a + a.conj().T
        values = hermitian_eig(a)
        scale = trace_norm_hermitian(a)
        assert np.all(np.diff(values) <= 0)
        # each eigenvalue leaves A - lambda I singular
        for lam in values:
            assert np.linalg.svd(a - lam * np.eye(d), compute_uv=False)[-1] <= 1e-9 * scale
        # trace and Frobenius norm are the sums of the eigenvalues and their squares
        assert values.sum() == pytest.approx(a.trace().real, abs=1e-9 * scale)
        assert (values**2).sum() == pytest.approx(np.linalg.norm(a) ** 2, rel=1e-12)


def test_trace_norm_examples():
    assert trace_norm_hermitian(np.diag([1.0, -1.0])) == pytest.approx(2.0)
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = projector(random_pure(2, rng).amplitudes)
        assert trace_norm_hermitian(rho - np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
    phi = max_entangled(2).density()
    assert trace_norm_hermitian(phi - np.eye(4) / 4) == pytest.approx(1.5, abs=1e-12)


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(13)
    for d in (2, 3, 6):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = a + a.conj().T
        u = random_unitary(d, rng)
        assert trace_norm_hermitian(u @ a @ u.conj().T) == pytest.approx(
            trace_norm_hermitian(a), abs=1e-9
        )


def test_unitary_eigenphases_clock_gates():
    phases = [t for t, _ in unitary_eigenphases(SZ)]
    np.testing.assert_allclose(phases, [0.0, np.pi], atol=1e-12)

    z3 = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    phases = [t for t, _ in unitary_eigenphases(z3)]
    np.testing.assert_allclose(phases, [0.0, 2 * np.pi / 3, 4 * np.pi / 3], atol=1e-10)


def test_unitary_eigenphases_hadamard_like():
    h = (SX + SZ) / np.sqrt(2)
    phases = [t for t, _ in unitary_eigenphases(h)]
    np.testing.assert_allclose(phases, [0.0, np.pi], atol=1e-10)


def test_unitary_eigenphases_reconstruction():
    rng = np.random.default_rng(23)
    for d in (2, 3, 5):
        u = random_unitary(d, rng)
        pairs = unitary_eigenphases(u)
        rebuilt = sum(np.exp(1j * t) * projector(v) for t, v in pairs)
        np.testing.assert_allclose(rebuilt, u, atol=1e-7)
        for t, v in pairs:
            assert np.linalg.norm(u @ v - np.exp(1j * t) * v) <= 1e-8


def test_unitary_eigenphases_degenerate_and_invalid():
    # fully degenerate spectrum: any orthonormal basis diagonalizes
    pairs = unitary_eigenphases(np.eye(3))
    assert [round(t, 12) for t, _ in pairs] == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="unitary"):
        unitary_eigenphases(np.array([[1, 1], [0, 1]], dtype=complex))


def test_pairs_round_trip():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    np.testing.assert_allclose(from_pairs(to_pairs(v)), v)
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    np.testing.assert_allclose(from_pairs(to_pairs(m)), m)
    with pytest.raises(ValueError):
        from_pairs([1.0, 2.0])
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            from_pairs([[1.0, 0.0], [0.0, bad]])
