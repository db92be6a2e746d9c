import numpy as np
import pytest

from chandiscrim import channels
from chandiscrim.channels import (
    CPTPError,
    Channel,
    apply,
    apply_on_A,
    channel_from_dict,
    choi,
    clock_matrix,
    make_amplitude_damping,
    make_depolarizing,
    make_dephasing,
    make_erasure,
    make_generalized_dephasing,
    make_mixed_unitary,
    mixed_unitary_pair_d3,
    mixed_unitary_pair_d6,
    shift_matrix,
)
from chandiscrim.linalg import ket
from chandiscrim.probes import max_entangled, uniform_superposition
from helpers import channel_to_dict, projector, random_unitary, stinespring_channel

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_density(d, rng):
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / rho.trace().real


def loop_weyl_kraus(d, q):
    """The depolarizing Kraus set built term by term: the reference for the cached build."""
    x, z = shift_matrix(d), clock_matrix(d)
    w = (1.0 - q) / d**2
    kraus = [np.sqrt(q + w) * np.eye(d, dtype=complex)]
    for a in range(d):
        xa = np.linalg.matrix_power(x, a)
        for b in range(d):
            if a == 0 and b == 0:
                continue
            kraus.append(np.sqrt(w) * (xa @ np.linalg.matrix_power(z, b)))
    return kraus


def loop_choi(kraus, dim_in):
    """Sum of outer products vec(K)vec(K)†/d, one Kraus operator at a time."""
    vecs = [k.reshape(-1) / np.sqrt(dim_in) for k in kraus]
    out = np.zeros((vecs[0].size,) * 2, dtype=complex)
    for v in vecs:
        out += np.outer(v, v.conj())
    return out


def loop_tp_residual(kraus, dim_in):
    tp = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(tp - np.eye(dim_in))))


def assert_cptp(ch):
    tp = sum(k.conj().T @ k for k in ch.kraus)
    assert np.max(np.abs(tp - np.eye(ch.dim_in))) <= 1e-10
    assert np.linalg.eigvalsh(choi(ch)).min() >= -1e-10


# --- depolarizing ---


def test_depolarizing_low_noise_limit():
    ch = make_depolarizing(2, 1 - 1e-10)
    out = apply(ch, projector(ket(2, 0)))
    np.testing.assert_allclose(out, projector(ket(2, 0)), atol=1e-9)


def test_depolarizing_action_by_hand():
    ch = make_depolarizing(2, 0.5)
    out = apply(ch, projector(ket(2, 0)))
    np.testing.assert_allclose(out, np.diag([0.75, 0.25]), atol=1e-12)


def test_depolarizing_fixed_point():
    ch = make_depolarizing(3, 0.4)
    np.testing.assert_allclose(apply(ch, np.eye(3) / 3), np.eye(3) / 3, atol=1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_depolarizing_matches_affine_action(d):
    rng = np.random.default_rng(d)
    ch = make_depolarizing(d, 0.35)
    assert_cptp(ch)
    for _ in range(50):
        rho = random_density(d, rng)
        expected = 0.35 * rho + 0.65 * np.eye(d) / d
        np.testing.assert_allclose(apply(ch, rho), expected, atol=1e-10)


def test_depolarizing_rejects_bad_parameters():
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError, match="q"):
            make_depolarizing(2, bad)
    with pytest.raises(ValueError, match="d"):
        make_depolarizing(1, 0.5)


# --- dephasing ---


def test_dephasing_plus_state():
    ch = make_dephasing(2, 0.5)
    out = apply(ch, uniform_superposition(2).density())
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


@pytest.mark.parametrize("d,r", [(2, 0.3), (3, 0.8), (5, 0.6)])
def test_dephasing_fixes_diagonal_states(d, r):
    rng = np.random.default_rng(d)
    diag = rng.uniform(0.1, 1.0, size=d)
    rho = np.diag(diag / diag.sum()).astype(complex)
    np.testing.assert_allclose(apply(make_dephasing(d, r), rho), rho, atol=1e-12)


def test_dephasing_uniform_qutrit_splits_into_orthogonal_pair():
    ch = make_dephasing(3, 0.7)
    b = uniform_superposition(3).amplitudes
    b_rot = clock_matrix(3) @ b
    assert abs(np.vdot(b, b_rot)) <= 1e-12
    out = apply(ch, projector(b))
    np.testing.assert_allclose(out, 0.7 * projector(b) + 0.3 * projector(b_rot), atol=1e-12)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(out), [0.0, 0.3, 0.7], atol=1e-12
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_dephasing_matches_affine_action(d):
    rng = np.random.default_rng(17 + d)
    ch = make_dephasing(d, 0.45)
    assert_cptp(ch)
    z = clock_matrix(d)
    for _ in range(50):
        rho = random_density(d, rng)
        expected = 0.45 * rho + 0.55 * z @ rho @ z.conj().T
        np.testing.assert_allclose(apply(ch, rho), expected, atol=1e-10)


# --- generalized dephasing ---


def test_gen_dephasing_identity_unitary_is_identity_channel():
    rng = np.random.default_rng(0)
    for r in (0.2, 0.9):
        ch = make_generalized_dephasing(np.eye(3), r)
        rho = random_density(3, rng)
        np.testing.assert_allclose(apply(ch, rho), rho, atol=1e-12)


def test_gen_dephasing_specializes_to_dephasing():
    rng = np.random.default_rng(1)
    z = clock_matrix(2)
    ch_gen = make_generalized_dephasing(z, 0.7)
    ch_deph = make_dephasing(2, 0.7)
    rho = random_density(2, rng)
    np.testing.assert_allclose(apply(ch_gen, rho), apply(ch_deph, rho), atol=1e-12)


def test_gen_dephasing_bit_flip_mixes_zero_state():
    ch = make_generalized_dephasing(SX, 0.5)
    out = apply(ch, projector(ket(2, 0)))
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_gen_dephasing_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        make_generalized_dephasing(np.array([[1, 0], [0, 2]]), 0.5)
    # a vector used to raise an IndexError; a 1x1 unitary made a d = 1 channel
    for u in (np.array([1.0, 0.0]), np.eye(1), np.ones((2, 3)), np.eye(2)[None]):
        with pytest.raises(ValueError, match="square matrix of size at least 2"):
            make_generalized_dephasing(u, 0.5)


def test_gen_dephasing_matches_affine_action():
    rng = np.random.default_rng(33)
    u = random_unitary(3, rng)
    ch = make_generalized_dephasing(u, 0.55)
    assert_cptp(ch)
    for _ in range(50):
        rho = random_density(3, rng)
        expected = 0.55 * rho + 0.45 * u @ rho @ u.conj().T
        np.testing.assert_allclose(apply(ch, rho), expected, atol=1e-10)


# --- amplitude damping ---


def test_amplitude_damping_ground_state_fixed():
    for mu in (0.1, 0.5, 0.9):
        ch = make_amplitude_damping(mu)
        assert_cptp(ch)
        np.testing.assert_allclose(
            apply(ch, projector(ket(2, 0))), projector(ket(2, 0)), atol=1e-12
        )


def test_amplitude_damping_excited_state():
    out = apply(make_amplitude_damping(0.36), projector(ket(2, 1)))
    np.testing.assert_allclose(out, np.diag([0.64, 0.36]), atol=1e-12)


def test_amplitude_damping_plus_state():
    out = apply(make_amplitude_damping(0.25), uniform_superposition(2).density())
    expected = np.array([[0.875, 0.25], [0.25, 0.125]], dtype=complex)
    np.testing.assert_allclose(out, expected, atol=1e-12)


# --- mixed unitary ---


def test_single_unitary_ensemble_is_unitary_channel():
    rng = np.random.default_rng(4)
    ch = make_mixed_unitary((SX,), (1.0,))
    rho = random_density(2, rng)
    np.testing.assert_allclose(apply(ch, rho), SX @ rho @ SX, atol=1e-12)


def test_identity_bitflip_mixture():
    out = apply(make_mixed_unitary((np.eye(2), SX), (0.5, 0.5)), projector(ket(2, 0)))
    np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-12)


def test_ensemble_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        make_mixed_unitary((np.eye(2), SX), (0.5, 0.6))
    with pytest.raises(ValueError, match=r"not unitary within 1e-10 \(residual 3\.000e\+00\)"):
        make_mixed_unitary((np.array([[1, 0], [0, 2]]),), (1.0,))
    with pytest.raises(ValueError, match="weight"):
        make_mixed_unitary((np.eye(2), SX), (0.0, 1.0))
    with pytest.raises(ValueError, match="a single weight must be 1"):
        make_mixed_unitary((SX,), (1.5,))
    with pytest.raises(ValueError, match="need equally many unitaries and weights"):
        make_mixed_unitary((np.eye(2), SX), (1.0,))


def test_ensemble_members_must_be_square_matrices_of_one_size():
    # the shape check runs before the unitarity check, which would index a
    # vector out of range and call a unitary of the wrong size non-unitary
    for unitaries, weights in [
        ([np.ones(2) / np.sqrt(2)], [1.0]),
        ([np.eye(2), np.eye(3)], [0.5, 0.5]),
        ([np.ones((2, 3)) / np.sqrt(2)], [1.0]),
        ([np.zeros((0, 0))], [1.0]),
    ]:
        with pytest.raises(ValueError, match="square matrices of one size"):
            make_mixed_unitary(unitaries, weights)


def test_qutrit_pair_structure():
    ch1, ch2 = mixed_unitary_pair_d3((0.5, 0.3, 0.2))
    assert_cptp(ch1)
    assert_cptp(ch2)
    firsts = [k / np.sqrt(q) for k, q in zip(ch1.kraus, (0.5, 0.3, 0.2))]
    seconds = [k / np.sqrt(q) for k, q in zip(ch2.kraus, (0.5, 0.3, 0.2))]
    traces = [np.trace(l.conj().T @ s) for l, s in zip(firsts, seconds)]
    np.testing.assert_allclose(traces, [0.0, 1.0, 0.0], atol=1e-12)
    # the pair-2 product is the diagonal sign matrix
    np.testing.assert_allclose(
        firsts[1].conj().T @ seconds[1], np.diag([-1.0, 1.0, 1.0]), atol=1e-12
    )
    for u in firsts + seconds:
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
    # ensemble action on |0><0|: q1 and q3 branches stay on |0>, q2 moves it to |1>
    out = apply(ch1, projector(ket(3, 0)))
    np.testing.assert_allclose(
        out, np.diag([0.5 + 0.2, 0.3, 0.0]), atol=1e-12
    )


def test_dimension6_pair_structure():
    ch1, ch2 = mixed_unitary_pair_d6((0.2, 0.5, 0.3))
    assert_cptp(ch1)
    assert_cptp(ch2)
    firsts = [k / np.sqrt(q) for k, q in zip(ch1.kraus, (0.2, 0.5, 0.3))]
    seconds = [k / np.sqrt(q) for k, q in zip(ch2.kraus, (0.2, 0.5, 0.3))]
    traces = [np.trace(l.conj().T @ s).real for l, s in zip(firsts, seconds)]
    np.testing.assert_allclose(traces, [4.0, 3.0, 3.0], atol=1e-12)
    for u in firsts + seconds:
        np.testing.assert_allclose(u.conj().T @ u, np.eye(6), atol=1e-12)
    out = apply(ch1, projector(ket(6, 0)))
    np.testing.assert_allclose(out, np.diag([0.2, 0.5, 0.3, 0, 0, 0.0]), atol=1e-12)
    out2 = apply(ch2, projector(ket(6, 0)))
    np.testing.assert_allclose(out2, np.diag([0, 0, 0, 0.2, 0.5, 0.3]), atol=1e-12)


def test_pair_weight_validation():
    with pytest.raises(ValueError):
        mixed_unitary_pair_d3((1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        mixed_unitary_pair_d6((0.2, 0.2, 0.2))


# --- erasure ---


def test_erasure_action_formula():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        ch = make_erasure(d, 0.4)
        assert_cptp(ch)
        assert ch.dim_out == d + 1
        for _ in range(25):
            rho = random_density(d, rng)
            embedded = np.zeros((d + 1, d + 1), dtype=complex)
            embedded[:d, :d] = rho
            expected = 0.4 * embedded + 0.6 * projector(ket(d + 1, d))
            out = apply(ch, rho)
            np.testing.assert_allclose(out, expected, atol=1e-10)
            assert out.trace().real == pytest.approx(1.0, abs=1e-12)


def test_erasure_transparent_limit():
    ch = make_erasure(2, 1 - 1e-11)
    rho = projector(uniform_superposition(2).amplitudes)
    out = apply(ch, rho)
    np.testing.assert_allclose(out[:2, :2], rho, atol=1e-5)


def test_erasure_zero_state():
    out = apply(make_erasure(2, 0.3), projector(ket(2, 0)))
    np.testing.assert_allclose(out, np.diag([0.3, 0.0, 0.7]), atol=1e-12)


# --- apply / apply_on_A / choi ---


def test_apply_validates_states():
    ch = make_depolarizing(2, 0.5)
    with pytest.raises(ValueError, match="shape"):
        apply(ch, np.eye(3) / 3)
    with pytest.raises(ValueError, match="trace"):
        apply(ch, np.eye(2))
    with pytest.raises(ValueError, match="positive"):
        apply(ch, np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="Hermitian"):
        apply(ch, np.array([[0.5, 1], [0, 0.5]], dtype=complex))
    # a non-finite state used to reach the Hermiticity check's arithmetic
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            apply(ch, np.full((2, 2), bad))
        with pytest.raises(ValueError, match="finite"):
            apply(ch, np.array([[0.5, bad], [bad, 0.5]]))
        with pytest.raises(ValueError, match="finite"):
            apply_on_A(ch, np.full((4, 4), bad), 2)


def test_apply_on_A_identity_channel():
    ch = make_mixed_unitary((np.eye(2),), (1.0,))
    rho = max_entangled(2).density()
    np.testing.assert_allclose(apply_on_A(ch, rho, 2), rho, atol=1e-12)


def test_apply_on_A_depolarizing_phi_plus():
    q = 0.65
    ch = make_depolarizing(2, q)
    rho = max_entangled(2).density()
    expected = q * rho + (1 - q) * np.kron(np.eye(2) / 2, np.eye(2) / 2)
    np.testing.assert_allclose(apply_on_A(ch, rho, 2), expected, atol=1e-12)


def test_apply_on_A_erasure_phi_plus():
    eps = 0.37
    ch = make_erasure(2, eps)
    rho = max_entangled(2).density()
    out = apply_on_A(ch, rho, 2)
    # expected: embed A into C^3 and keep B, plus the flag branch on A
    embed = np.zeros((3, 2), dtype=complex)
    embed[:2, :] = np.eye(2)
    big = np.kron(embed, np.eye(2))
    expected = eps * big @ rho @ big.conj().T + (1 - eps) * np.kron(
        projector(ket(3, 2)), np.eye(2) / 2
    )
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_apply_on_A_factorizes_on_product_states():
    rng = np.random.default_rng(29)
    for ch in (make_depolarizing(2, 0.7), make_amplitude_damping(0.4), make_erasure(2, 0.6)):
        for _ in range(10):
            rho_a = random_density(2, rng)
            rho_b = random_density(3, rng)
            out = apply_on_A(ch, np.kron(rho_a, rho_b), 3)
            np.testing.assert_allclose(out, np.kron(apply(ch, rho_a), rho_b), atol=1e-10)


def test_apply_linearity():
    rng = np.random.default_rng(21)
    ch = make_amplitude_damping(0.3)
    rho1 = random_density(2, rng)
    rho2 = random_density(2, rng)
    for alpha in (0.0, 0.25, 0.8):
        mix = alpha * rho1 + (1 - alpha) * rho2
        np.testing.assert_allclose(
            apply(ch, mix),
            alpha * apply(ch, rho1) + (1 - alpha) * apply(ch, rho2),
            atol=1e-10,
        )


def test_choi_identity_and_depolarizing():
    np.testing.assert_allclose(
        choi(make_mixed_unitary((np.eye(2),), (1.0,))), max_entangled(2).density(), atol=1e-12
    )
    q = 0.3
    expected = q * max_entangled(2).density() + (1 - q) * np.eye(4) / 4
    np.testing.assert_allclose(choi(make_depolarizing(2, q)), expected, atol=1e-12)


def test_choi_amplitude_damping_limit():
    ch = make_amplitude_damping(1 - 1e-9)
    np.testing.assert_allclose(choi(ch), max_entangled(2).density(), atol=1e-4)
    assert choi(ch).trace().real == pytest.approx(1.0, abs=1e-12)


# --- JSON schema ---


def test_channel_json_round_trip():
    ch = make_erasure(2, 0.3)
    data = channel_to_dict(ch)
    assert set(data) == {"dim_in", "dim_out", "kraus"}
    rebuilt = channel_from_dict(data)
    assert rebuilt.dim_in == 2 and rebuilt.dim_out == 3
    rho = projector(ket(2, 0))
    np.testing.assert_allclose(apply(rebuilt, rho), apply(ch, rho), atol=1e-12)


def test_channel_json_schema_errors():
    with pytest.raises(ValueError, match="missing"):
        channel_from_dict({"dim_in": 2, "kraus": []})
    with pytest.raises(ValueError, match="kraus"):
        channel_from_dict({"dim_in": 2, "dim_out": 2, "kraus": []})
    with pytest.raises(ValueError, match="Kraus"):
        channel_from_dict(
            {"dim_in": 2, "dim_out": 2, "kraus": [[[[1, 0]], [[0, 0]]]]}
        )
    # a non-finite entry used to reach the CPTP check's eigensolver
    good = channel_to_dict(make_amplitude_damping(0.3))
    for bad in (float("nan"), float("inf")):
        data = {**good, "kraus": [good["kraus"][0], [[[0, 0], [0, bad]], [[0, 0], [0, 0]]]]}
        with pytest.raises(ValueError, match="channel2: malformed Kraus matrix 1: .* finite"):
            channel_from_dict(data, name="channel2")


def test_non_finite_kraus_stack_rejected_before_the_cptp_check():
    for bad in (np.nan, np.inf):
        kraus = np.zeros((1, 2, 2), dtype=complex)
        kraus[0, 1, 0] = bad
        with pytest.raises(ValueError, match="finite") as err:
            Channel(kraus)
        assert not isinstance(err.value, CPTPError)
    with pytest.raises(ValueError, match="finite"):
        Channel(np.full((1, 2, 2), np.nan))


def test_non_cptp_kraus_rejected_with_residuals():
    good = make_amplitude_damping(0.5)
    scaled = [1.2 * k for k in good.kraus]
    with pytest.raises(CPTPError) as err:
        Channel(scaled)
    assert err.value.tp_residual > 1e-10


def test_kraus_arrays_are_immutable():
    ch = make_depolarizing(2, 0.5)
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 5.0


def test_kraus_is_one_read_only_stack():
    rng = np.random.default_rng(3)
    ops = list(stinespring_channel(rng, 2, 3, 4).kraus)
    ch = Channel(ops)
    assert isinstance(ch.kraus, np.ndarray) and ch.kraus.shape == (4, 3, 2)
    assert (ch.dim_in, ch.dim_out) == (2, 3)
    assert not ch.kraus.flags.writeable
    assert not any(np.shares_memory(ch.kraus, k) for k in ops)
    assert len(ch.kraus) == 4 and all(np.array_equal(k, o) for k, o in zip(ch.kraus, ops))
    # a stack, such as another channel's kraus, builds the same channel
    again = Channel(ch.kraus)
    assert np.array_equal(again.kraus, ch.kraus) and not np.shares_memory(again.kraus, ch.kraus)
    assert np.array_equal(choi(again), choi(ch))
    rho = random_density(2, rng)
    assert np.array_equal(apply(again, rho), apply(ch, rho))
    # the dimensions are read from the stack and cannot be set
    with pytest.raises(AttributeError):
        ch.dim_in = 3
    with pytest.raises(ValueError, match=r"non-empty \(n, dim_out, dim_in\) array, got shape \(0,"):
        Channel([])
    with pytest.raises(ValueError, match=r"got shape \(2, 2\)"):
        Channel(np.eye(2))
    with pytest.raises(ValueError, match=r"got shape \(1, 0, 2\)"):
        Channel(np.zeros((1, 0, 2)))
    with pytest.raises(ValueError, match=r"must share one shape, got \[\(2, 2\), \(3, 3\)\]"):
        Channel([np.eye(2), np.zeros((3, 3))])


@pytest.mark.parametrize("d", range(2, 8))
def test_depolarizing_kraus_equal_loop_build(d):
    for q in (0.35, 0.9):
        kraus = make_depolarizing(d, q).kraus
        reference = loop_weyl_kraus(d, q)
        assert len(kraus) == len(reference) == d * d
        assert all(np.array_equal(k, r) for k, r in zip(kraus, reference))


@pytest.mark.parametrize("dim_in, dim_out, branches", [(2, 3, 2), (3, 2, 4), (2, 5, 1), (4, 3, 3)])
def test_choi_matches_loop_form(dim_in, dim_out, branches):
    rng = np.random.default_rng(10 * dim_in + dim_out)
    for _ in range(5):
        ch = stinespring_channel(rng, dim_in, dim_out, branches)
        assert np.max(np.abs(choi(ch) - loop_choi(ch.kraus, dim_in))) <= 1e-15


def test_scaled_kraus_residuals_match_loop_form():
    rng = np.random.default_rng(7)
    for dim_in, dim_out, branches in [(2, 2, 2), (3, 4, 2), (3, 2, 5)]:
        kraus = 1.05 * stinespring_channel(rng, dim_in, dim_out, branches).kraus
        with pytest.raises(CPTPError) as err:
            Channel(kraus)
        tp_residual = loop_tp_residual(kraus, dim_in)
        choi_min = float(np.linalg.eigvalsh(loop_choi(kraus, dim_in)).min())
        assert tp_residual > 1e-10
        assert abs(err.value.tp_residual - tp_residual) <= 1e-15
        assert abs(err.value.choi_min_eigenvalue - choi_min) <= 1e-15


def test_weyl_cache_cannot_be_written_through_a_channel():
    cached = channels._weyl_operators(3)
    before = cached.copy()
    ch = make_depolarizing(3, 0.4)
    for k in ch.kraus:
        assert not np.shares_memory(k, cached)
        with pytest.raises(ValueError):
            k[0, 0] = 5.0
    with pytest.raises(ValueError):
        cached[0, 0, 0] = 5.0
    assert np.array_equal(channels._weyl_operators(3), before)
    rebuilt = make_depolarizing(3, 0.4).kraus
    assert all(np.array_equal(k, r) for k, r in zip(rebuilt, loop_weyl_kraus(3, 0.4)))
