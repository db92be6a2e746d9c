import json

import numpy as np
import pytest

from chandiscrim.probes import (
    PureProbe,
    basis_probe,
    bloch_qubit,
    max_entangled,
    nonmax_qubit,
    product_probe,
    random_bipartite,
    random_pure,
    schmidt_pair,
    uniform_superposition,
    zeta_probe,
)


def test_bloch_qubit_poles_and_equator():
    np.testing.assert_allclose(bloch_qubit(0.0, 1.3).amplitudes, [1, 0], atol=1e-15)
    np.testing.assert_allclose(
        np.abs(bloch_qubit(np.pi, 0.0).amplitudes), [0, 1], atol=1e-15
    )
    v = bloch_qubit(np.pi / 2, np.pi / 2).amplitudes
    np.testing.assert_allclose(v, np.array([1.0, 1.0j]) / np.sqrt(2), atol=1e-15)


def test_uniform_superposition():
    np.testing.assert_allclose(
        uniform_superposition(3).amplitudes, np.full(3, 1 / np.sqrt(3)), atol=1e-15
    )
    np.testing.assert_allclose(
        uniform_superposition(4).amplitudes, np.full(4, 0.5), atol=1e-15
    )
    with pytest.raises(ValueError):
        uniform_superposition(1)


def test_max_entangled():
    p2 = max_entangled(2)
    np.testing.assert_allclose(p2.amplitudes, np.eye(2) / np.sqrt(2))
    p3 = max_entangled(3)
    expected = np.zeros(9)
    expected[[0, 4, 8]] = 1 / np.sqrt(3)
    np.testing.assert_allclose(p3.amplitudes.reshape(-1), expected)
    # the state on B: trace the density over A
    reduced_b = np.trace(p3.density().reshape(3, 3, 3, 3), axis1=0, axis2=2)
    np.testing.assert_allclose(reduced_b, np.eye(3) / 3, atol=1e-15)


def test_nonmax_qubit():
    np.testing.assert_allclose(nonmax_qubit(1.0, 0.7).amplitudes, [[1, 0], [0, 0]], atol=1e-15)
    np.testing.assert_allclose(
        nonmax_qubit(0.5, 0.0).amplitudes, max_entangled(2).amplitudes, atol=1e-15
    )
    v = nonmax_qubit(0.3, 0.0).amplitudes
    np.testing.assert_allclose(v, np.diag([np.sqrt(0.3), np.sqrt(0.7)]), atol=1e-15)
    with pytest.raises(ValueError):
        nonmax_qubit(1.2, 0.0)


def test_schmidt_pair():
    np.testing.assert_allclose(
        schmidt_pair(0.5).amplitudes, max_entangled(2).amplitudes, atol=1e-15
    )
    v = schmidt_pair(0.1).amplitudes
    np.testing.assert_allclose(v, np.diag([np.sqrt(0.1), np.sqrt(0.9)]), atol=1e-15)
    reduced_b = np.trace(schmidt_pair(0.1).density().reshape(2, 2, 2, 2), axis1=0, axis2=2)
    np.testing.assert_allclose(reduced_b, np.diag([0.1, 0.9]), atol=1e-15)
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            schmidt_pair(bad)


def test_zeta_probe():
    p = zeta_probe(0.5, 0.5)
    expected = np.zeros(9)
    expected[0] = 1 / np.sqrt(2)
    expected[4] = expected[8] = 0.5
    np.testing.assert_allclose(p.amplitudes.reshape(-1), expected, atol=1e-15)
    # Schmidt spectrum is (1/2, |c1|^2, |c2|^2)
    reduced_a = np.trace(p.density().reshape(3, 3, 3, 3), axis1=1, axis2=3)
    np.testing.assert_allclose(reduced_a, np.diag([0.5, 0.25, 0.25]), atol=1e-12)
    rank2 = zeta_probe(1 / np.sqrt(2), 0.0)
    assert np.count_nonzero(np.abs(rank2.amplitudes) > 1e-12) == 2
    with pytest.raises(ValueError, match="1/2"):
        zeta_probe(0.5, 0.5j + 0.2)


def test_every_constructor_is_normalized():
    probes = [
        bloch_qubit(1.0, 2.0),
        uniform_superposition(5),
        basis_probe(4, 2),
        random_pure(6, 1),
    ]
    for p in probes:
        assert np.linalg.norm(p.amplitudes) == pytest.approx(1.0, abs=1e-12)
    bipartite = [
        max_entangled(4),
        nonmax_qubit(0.2, 1.0),
        schmidt_pair(0.7),
        zeta_probe(0.3, np.sqrt(0.5 - 0.09)),
        random_bipartite(3, 3, 2),
    ]
    for p in bipartite:
        assert np.linalg.norm(p.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_direct_construction_rejects_unnormalized():
    with pytest.raises(ValueError, match="normalized"):
        PureProbe(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        PureProbe(np.ones((2, 3)))
    # a non-finite norm is not within NORM_ATOL of 1 either
    with pytest.raises(ValueError, match="normalized"):
        PureProbe(np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="normalized"):
        PureProbe(np.array([np.inf, 0.0]))


def test_direct_construction_rejects_other_shapes():
    for bad in (np.array(1.0), np.zeros(0), np.zeros((0, 2)), np.ones((1, 1, 1))):
        with pytest.raises(ValueError, match="vector or a matrix"):
            PureProbe(bad)


def test_shape_gives_the_dims():
    assert PureProbe(np.eye(2, 3) / np.sqrt(2)).to_dict()["dims"] == [2, 3]
    assert PureProbe(np.ones(4) / 2).to_dict()["dims"] == [4]
    probe = PureProbe(np.array([[0.6, 0.0], [0.0, 0.8j]]))
    np.testing.assert_allclose(
        probe.density(), np.outer([0.6, 0, 0, 0.8j], np.conj([0.6, 0, 0, 0.8j])), atol=1e-15
    )
    with pytest.raises(ValueError, match="read-only"):
        probe.amplitudes[0, 0] = 1.0


def test_random_pure_is_deterministic_per_seed():
    a = random_pure(5, 42).amplitudes
    b = random_pure(5, 42).amplitudes
    np.testing.assert_array_equal(a, b)
    c = random_pure(5, 43).amplitudes
    assert np.linalg.norm(a - c) > 1e-3


def test_random_pure_haar_overlap_moment():
    # E |<psi1|psi2>|^2 = 1/d for Haar pairs; check the Monte-Carlo mean at 5 sigma
    d = 4
    rng = np.random.default_rng(7)
    n = 1000
    overlaps = np.empty(n)
    for i in range(n):
        a = random_pure(d, rng).amplitudes
        b = random_pure(d, rng).amplitudes
        overlaps[i] = abs(np.vdot(a, b)) ** 2
    mean = overlaps.mean()
    var = 2.0 / (d * (d + 1)) - 1.0 / d**2
    sigma = np.sqrt(var / n)
    assert abs(mean - 1.0 / d) < 5 * sigma


def test_serialization_shapes():
    single = uniform_superposition(3).to_dict()
    assert single["dims"] == [3]
    assert len(single["amplitudes"]) == 3
    pair = max_entangled(2).to_dict()
    assert pair["dims"] == [2, 2]
    assert pair["amplitudes"][0] == [1 / np.sqrt(2), 0.0]


def test_product_probe_layout():
    p = product_probe(basis_probe(2, 1), basis_probe(3, 0))
    expected = np.zeros(6)
    expected[3] = 1.0
    np.testing.assert_allclose(p.amplitudes.reshape(-1), expected)
    assert p.amplitudes.shape == (2, 3)
    with pytest.raises(ValueError, match="single-system"):
        product_probe(max_entangled(2), basis_probe(2, 0))
    with pytest.raises(ValueError, match="single-system"):
        product_probe(basis_probe(2, 0), max_entangled(2))


# to_dict() of every constructor at fixed arguments, as JSON text.
TO_DICT_PINS = [
    (
        lambda: bloch_qubit(1.1, 0.4),
        '{"dims": [2], "amplitudes": [[0.8525245220595057, 0.0], [0.48142681863148656, 0.20354399423607944]]}',
    ),
    (
        lambda: uniform_superposition(3),
        '{"dims": [3], "amplitudes": [[0.5773502691896258, 0.0], [0.5773502691896258, 0.0], [0.5773502691896258, 0.0]]}',
    ),
    (
        lambda: basis_probe(3, 2),
        '{"dims": [3], "amplitudes": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]}',
    ),
    (
        lambda: max_entangled(3),
        '{"dims": [3, 3], "amplitudes": [[0.5773502691896258, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5773502691896258, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5773502691896258, 0.0]]}',
    ),
    (
        lambda: nonmax_qubit(0.3, 1.1),
        '{"dims": [2, 2], "amplitudes": [[0.5477225575051661, 0.0], [0.0, 0.0], [0.0, 0.0], [0.37950574298767725, 0.745637573516364]]}',
    ),
    (
        lambda: schmidt_pair(0.2),
        '{"dims": [2, 2], "amplitudes": [[0.4472135954999579, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8944271909999159, 0.0]]}',
    ),
    (
        lambda: zeta_probe(0.5, 0.5j),
        '{"dims": [3, 3], "amplitudes": [[0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5000000000000001, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.5000000000000001]]}',
    ),
    (
        lambda: random_pure(3, 7),
        '{"dims": [3], "amplitudes": [[0.000839417634430953, -0.6077116239092439], [0.20385447949786673, -0.31025292302965385], [-0.18706297768194088, -0.6766681571232681]]}',
    ),
    (
        lambda: random_bipartite(2, 3, 7),
        '{"dims": [2, 3], "amplitudes": [[0.000553359692385433, 0.027054387349214486], [0.13438465840999783, 0.6028688142818238], [-0.12331538859909008, -0.221409181252856], [-0.4006147875287845, -0.2791081271361796], [-0.20452448817775276, 0.22034557281755074], [-0.44607221472847125, 0.1605384270591695]]}',
    ),
    (
        lambda: product_probe(bloch_qubit(1.1, 0.4), basis_probe(3, 1)),
        '{"dims": [2, 3], "amplitudes": [[0.0, 0.0], [0.8525245220595057, 0.0], [0.0, 0.0], [0.0, 0.0], [0.48142681863148656, 0.20354399423607944], [0.0, 0.0]]}',
    ),
]


@pytest.mark.parametrize("make, pinned", TO_DICT_PINS)
def test_to_dict_bytes_are_pinned(make, pinned):
    assert json.dumps(make().to_dict()) == pinned
