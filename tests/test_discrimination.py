import re

import numpy as np
import pytest
from scipy.optimize import minimize

from chandiscrim.channels import (
    apply,
    apply_on_A,
    clock_matrix,
    make_amplitude_damping,
    make_depolarizing,
    make_dephasing,
    make_erasure,
    mixed_unitary_pair_d3,
    mixed_unitary_pair_d6,
)
from chandiscrim.discrimination import (
    ad_maxent_closed,
    ad_nonmax_closed,
    ad_nonmax_norm,
    ad_single_closed,
    dephasing_closed,
    depolarizing_maxent_closed,
    depolarizing_nonmax_closed,
    depolarizing_single_closed,
    discrim_fixed_entangled,
    discrim_fixed_single,
    ensemble_pairs,
    erasure_closed,
    gen_dephasing_closed,
    gen_dephasing_maxent_closed,
    gen_dephasing_optimal_probe,
    helstrom,
    helstrom_pure,
    hull_min_distance,
    hull_nearest_weights,
    mixed_unitary_maxent_bound,
    mixed_unitary_single_bound,
)
from chandiscrim.linalg import is_unitary, ket
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
from helpers import projector, random_unitary, stinespring_channel

# --- Helstrom ---


def test_helstrom_indistinguishable():
    rho = uniform_superposition(2).density()
    assert helstrom(rho, rho) == pytest.approx(0.5, abs=1e-15)


def test_helstrom_orthogonal():
    assert helstrom(projector(ket(2, 0)), projector(ket(2, 1))) == pytest.approx(1.0)


def test_helstrom_partial_overlap():
    p = helstrom(projector(ket(2, 0)), uniform_superposition(2).density())
    assert p == pytest.approx(0.5 * (1 + 1 / np.sqrt(2)), abs=1e-12)


def test_helstrom_priors_and_errors():
    zero = projector(ket(2, 0))
    one = projector(ket(2, 1))
    # certain prior makes the task trivial
    assert helstrom(zero, one, p1=1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="p1"):
        helstrom(zero, one, p1=1.2)
    with pytest.raises(ValueError, match="shapes"):
        helstrom(zero, np.eye(3) / 3)
    # nan, and inf (which used to raise a RuntimeWarning in the Hermiticity
    # check's arithmetic), are rejected before any arithmetic
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            helstrom(np.full((2, 2), bad), np.eye(2) / 2)
        with pytest.raises(ValueError, match="finite"):
            helstrom(zero, np.array([[0.5, bad], [bad, 0.5]]))


# --- fixed-probe evaluations ---


def test_fixed_single_identical_channels():
    ch = make_dephasing(2, 0.4)
    r = discrim_fixed_single(ch, ch, random_pure(2, 3))
    assert r.probability == pytest.approx(0.5, abs=1e-12)
    assert r.probe_class == "single"


def test_fixed_single_depolarizing_is_probe_independent():
    ch1 = make_depolarizing(2, 0.9)
    ch2 = make_depolarizing(2, 0.3)
    rng = np.random.default_rng(0)
    values = [
        discrim_fixed_single(ch1, ch2, random_pure(2, rng)).probability
        for _ in range(100)
    ]
    assert max(values) - min(values) <= 1e-9
    assert values[0] == pytest.approx(0.65, abs=1e-12)


def test_fixed_single_amplitude_damping_at_pi():
    ch1 = make_amplitude_damping(0.81)
    ch2 = make_amplitude_damping(0.36)
    r = discrim_fixed_single(ch1, ch2, bloch_qubit(np.pi, 0.0))
    assert r.probability == pytest.approx(0.725, abs=1e-12)


def test_fixed_entangled_identical_channels():
    ch = make_depolarizing(3, 0.5)
    r = discrim_fixed_entangled(ch, ch, max_entangled(3))
    assert r.probability == pytest.approx(0.5, abs=1e-12)


def test_fixed_entangled_depolarizing_phi_plus():
    r = discrim_fixed_entangled(
        make_depolarizing(2, 0.9), make_depolarizing(2, 0.3), max_entangled(2)
    )
    assert r.probability == pytest.approx(0.725, abs=1e-12)


def test_fixed_entangled_qutrit_pair_is_perfect():
    ch1, ch2 = mixed_unitary_pair_d3()
    r = discrim_fixed_entangled(ch1, ch2, zeta_probe(0.5, 0.5))
    assert r.probability == pytest.approx(1.0, abs=1e-12)


def test_fixed_dimension_checks():
    ch1 = make_depolarizing(2, 0.9)
    ch2 = make_depolarizing(3, 0.3)
    with pytest.raises(ValueError, match="differ"):
        discrim_fixed_single(ch1, ch2, random_pure(2, 1))
    with pytest.raises(ValueError, match="probe dimension"):
        discrim_fixed_single(ch1, make_depolarizing(2, 0.3), random_pure(3, 1))
    with pytest.raises(ValueError, match="probe dimension"):
        discrim_fixed_entangled(ch1, make_depolarizing(2, 0.3), random_bipartite(3, 2, 1))
    for p1 in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="p1"):
            discrim_fixed_single(ch1, make_depolarizing(2, 0.3), random_pure(2, 1), p1)
        with pytest.raises(ValueError, match="p1"):
            discrim_fixed_entangled(ch1, make_depolarizing(2, 0.3), max_entangled(2), p1)


def test_fixed_evaluators_check_the_probe_arity():
    # a flattened two-qubit probe has the length of a d = 4 input, and a
    # qubit vector the row count of a qubit coefficient matrix
    ch1, ch2 = make_depolarizing(4, 0.9), make_depolarizing(4, 0.3)
    with pytest.raises(ValueError, match="single-system probe"):
        discrim_fixed_single(ch1, ch2, max_entangled(2))
    ch1, ch2 = make_depolarizing(2, 0.9), make_depolarizing(2, 0.3)
    with pytest.raises(ValueError, match="bipartite probe"):
        discrim_fixed_entangled(ch1, ch2, basis_probe(2, 0))
    pairs = ensemble_pairs(*mixed_unitary_pair_d3())
    with pytest.raises(ValueError, match="single-system probe"):
        mixed_unitary_single_bound(pairs, max_entangled(3))


@pytest.mark.parametrize("p1", [0.3, 0.5, 0.8])
def test_pure_probe_kernel_matches_apply_and_helstrom(p1):
    # the Kraus-branch kernel against evolving the density matrix explicitly,
    # fed stacks of several probes and of one, on nine channel and ancilla shapes
    rng = np.random.default_rng(int(10 * p1))
    for dim_in, dim_out, branches, dim_b in [
        (2, 2, 2, 3), (2, 3, 3, 2), (3, 2, 4, 3), (3, 4, 2, 2), (3, 4, 3, 2),
        (4, 4, 1, 3), (3, 5, 1, 2), (2, 3, 2, 3), (4, 6, 3, 2),
    ]:
        ch1 = stinespring_channel(rng, dim_in, dim_out, branches)
        ch2 = stinespring_channel(rng, dim_in, dim_out, branches)
        k1, k2 = np.stack(ch1.kraus), np.stack(ch2.kraus)
        singles = [random_pure(dim_in, rng) for _ in range(5)]
        pairs = [random_bipartite(dim_in, dim_b, rng) for _ in range(5)]
        single_refs = [
            helstrom(apply(ch1, s.density()), apply(ch2, s.density()), p1) for s in singles
        ]
        pair_refs = [
            helstrom(
                apply_on_A(ch1, pr.density(), dim_b), apply_on_A(ch2, pr.density(), dim_b), p1
            )
            for pr in pairs
        ]
        stacks = [
            (np.stack([s.amplitudes for s in singles]), single_refs),
            (np.stack([s.amplitudes.reshape(dim_in, 1) for s in singles]), single_refs),
            (np.stack([pr.amplitudes for pr in pairs]), pair_refs),
        ]
        for psi, refs in stacks:
            values = helstrom_pure(k1, k2, psi, p1)
            assert values.shape == (len(refs),)
            for i, ref in enumerate(refs):
                assert abs(values[i] - ref) <= 1e-14
                assert helstrom_pure(k1, k2, psi[i : i + 1], p1)[0] == values[i]
        for s, ref in zip(singles, single_refs):
            assert abs(discrim_fixed_single(ch1, ch2, s, p1).probability - ref) <= 1e-14
        for pr, ref in zip(pairs, pair_refs):
            assert abs(discrim_fixed_entangled(ch1, ch2, pr, p1).probability - ref) <= 1e-14


# --- depolarizing closed forms ---


def test_depolarizing_single_closed():
    assert depolarizing_single_closed(2, 0.9, 0.3) == pytest.approx(0.65)
    assert depolarizing_single_closed(2, 0.4, 0.4) == pytest.approx(0.5)
    assert depolarizing_single_closed(3, 0.9, 0.3) == pytest.approx(0.7)
    # symmetric under swapping the channels
    assert depolarizing_single_closed(3, 0.3, 0.9) == pytest.approx(0.7)


def test_depolarizing_maxent_closed():
    assert depolarizing_maxent_closed(2, 0.9, 0.3) == pytest.approx(0.725)
    assert depolarizing_maxent_closed(2, 0.4, 0.4) == pytest.approx(0.5)
    assert depolarizing_maxent_closed(3, 0.9, 0.3) == pytest.approx(
        0.5 * (1 + 0.6 * 8 / 9), abs=1e-12
    )
    # cross-check the d=3 value against a fixed |phi+> evaluation
    fixed = discrim_fixed_entangled(
        make_depolarizing(3, 0.9), make_depolarizing(3, 0.3), max_entangled(3)
    )
    assert fixed.probability == pytest.approx(depolarizing_maxent_closed(3, 0.9, 0.3), abs=1e-12)


def test_depolarizing_nonmax_closed_curve():
    # endpoints meet the single and maximally entangled values
    assert depolarizing_nonmax_closed(0.0, 0.9, 0.3) == pytest.approx(0.65, abs=1e-12)
    assert depolarizing_nonmax_closed(1.0, 0.9, 0.3) == pytest.approx(0.65, abs=1e-12)
    assert depolarizing_nonmax_closed(0.5, 0.9, 0.3) == pytest.approx(0.725, abs=1e-12)
    assert depolarizing_nonmax_closed(0.25, 0.9, 0.3) == pytest.approx(0.710208, abs=1e-6)
    # matches fixed-probe evaluations, including a nonzero relative phase
    ch1, ch2 = make_depolarizing(2, 0.9), make_depolarizing(2, 0.3)
    for g in np.linspace(0, 1, 21):
        for z in (0.0, 1.234):
            fixed = discrim_fixed_entangled(ch1, ch2, nonmax_qubit(g, z)).probability
            assert fixed == pytest.approx(depolarizing_nonmax_closed(g, 0.9, 0.3), abs=1e-9)


def test_depolarizing_entanglement_monotonicity():
    values = [depolarizing_nonmax_closed(g, 0.9, 0.3) for g in np.linspace(0, 0.5, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_maxent_probes_are_equivalent():
    # value under (U_A (x) U_B)|phi+> is constant over random local unitaries
    rng = np.random.default_rng(31)
    cases = [
        (make_depolarizing(2, 0.9), make_depolarizing(2, 0.3), 0.725),
        (make_amplitude_damping(0.81), make_amplitude_damping(0.36), 0.65),
    ]
    for ch1, ch2, expected in cases:
        base = max_entangled(2).amplitudes.reshape(-1)
        for _ in range(50):
            u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
            probe = PureProbe((u @ base).reshape(2, 2))
            value = discrim_fixed_entangled(ch1, ch2, probe).probability
            assert value == pytest.approx(expected, abs=1e-9)


# --- dephasing closed forms ---


def test_dephasing_closed():
    assert dephasing_closed(0.9, 0.2) == pytest.approx(0.85)
    assert dephasing_closed(0.2, 0.9) == pytest.approx(0.85)
    assert dephasing_closed(0.5, 0.5) == pytest.approx(0.5)
    assert dephasing_closed(1 - 1e-12, 1e-12) == pytest.approx(1.0, abs=1e-11)


def test_closed_forms_reject_noise_parameters_outside_the_unit_interval():
    u = np.diag([1.0, np.exp(1j)])
    forms = {
        "q": [
            lambda a, b: depolarizing_single_closed(2, a, b),
            lambda a, b: depolarizing_maxent_closed(3, a, b),
            lambda a, b: depolarizing_nonmax_closed(0.3, a, b),
        ],
        "r": [
            dephasing_closed,
            lambda a, b: gen_dephasing_closed(u, a, b),
            lambda a, b: gen_dephasing_maxent_closed(u, a, b),
        ],
        "eps": [erasure_closed],
    }
    for name, fns in forms.items():
        for fn in fns:
            for bad in (1.5, -0.1, float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{name}1 must lie in"):
                    fn(bad, 0.2)
                with pytest.raises(ValueError, match=f"{name}2 must lie in"):
                    fn(0.2, bad)
            # the endpoints stay valid
            assert 0.5 <= fn(1.0, 0.0) <= 1.0
            assert fn(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    # amplitude damping takes mu strictly inside (0, 1), and the Schmidt weight p as well
    ad_forms = [ad_single_closed, ad_maxent_closed, lambda a, b: ad_nonmax_norm(0.3, a, b)]
    for fn in ad_forms:
        for bad in (0.0, 1.0, float("nan")):
            for name, args in (("mu1", (bad, 0.2)), ("mu2", (0.2, bad))):
                message = f"{name} must lie strictly in (0, 1), got {bad!r}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    fn(*args)
    for bad in (0.0, 1.0, float("nan")):
        message = f"p must lie strictly in (0, 1), got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ad_nonmax_norm(bad, 0.36, 0.09)


def test_dimension_arguments_must_be_integers_of_at_least_two():
    # a fractional d used to give a closed-form value or a numpy TypeError; random_bipartite
    # reported the product d_a * d_b, a number the caller never gave
    takes_d = [
        lambda d: depolarizing_single_closed(d, 0.9, 0.3),
        lambda d: depolarizing_maxent_closed(d, 0.9, 0.3),
        lambda d: make_depolarizing(d, 0.3),
        lambda d: make_dephasing(d, 0.3),
        lambda d: make_erasure(d, 0.3),
        uniform_superposition,
        max_entangled,
        lambda d: ket(d, 0),
        lambda d: basis_probe(d, 0),
        lambda d: random_pure(d, 0),
        lambda d: random_bipartite(d, 2, 0),
        lambda d: random_bipartite(2, d, 0),
    ]
    for fn in takes_d:
        for bad in (2.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^d must be an integer, got {bad}$"):
                fn(bad)
        for small in (1, 1.0, 0, -3):
            with pytest.raises(ValueError, match=f"^d must be at least 2, got {int(small)}$"):
                fn(small)
    # an integral float is that integer
    assert depolarizing_single_closed(3.0, 0.9, 0.3) == depolarizing_single_closed(3, 0.9, 0.3)
    assert depolarizing_maxent_closed(2.0, 0.9, 0.3) == depolarizing_maxent_closed(2, 0.9, 0.3)
    for make in (make_depolarizing, make_dephasing, make_erasure):
        assert np.array_equal(make(3.0, 0.3).kraus, make(3, 0.3).kraus)
    assert np.array_equal(uniform_superposition(3.0).amplitudes, uniform_superposition(3).amplitudes)
    assert np.array_equal(max_entangled(2.0).amplitudes, max_entangled(2).amplitudes)
    assert np.array_equal(basis_probe(3.0, 1).amplitudes, basis_probe(3, 1).amplitudes)
    assert np.array_equal(random_pure(3.0, 5).amplitudes, random_pure(3, 5).amplitudes)
    assert np.array_equal(
        random_bipartite(2.0, 3.0, 5).amplitudes, random_bipartite(2, 3, 5).amplitudes
    )


def test_dephasing_uniform_probe_attains_value():
    for d in (2, 3, 4, 5):
        ch1, ch2 = make_dephasing(d, 0.9), make_dephasing(d, 0.2)
        fixed = discrim_fixed_single(ch1, ch2, uniform_superposition(d)).probability
        assert fixed == pytest.approx(0.85, abs=1e-12)


# --- convex hull geometry ---


def test_hull_examples():
    assert hull_min_distance([0.0, np.pi]) == pytest.approx(0.0)
    assert hull_min_distance([0.0]) == pytest.approx(1.0)
    assert hull_min_distance([np.pi / 3, -np.pi / 3]) == pytest.approx(0.5, abs=1e-12)
    # clock phases surround the origin for d >= 3
    for d in (3, 4, 7):
        assert hull_min_distance(2 * np.pi * np.arange(d) / d) == pytest.approx(0.0)
    assert hull_min_distance([0.1, 0.1 + 1e-14]) == pytest.approx(1.0, abs=1e-9)
    # a point just below 2*pi is merged with the one at 0 across the wrap
    assert hull_min_distance([0.0, 2 * np.pi - 1e-13, 1.0]) == hull_min_distance([0.0, 1.0])
    with pytest.raises(ValueError):
        hull_min_distance([])


def _hull_distance_slsqp(phases, rng):
    pts = np.exp(1j * np.asarray(phases))
    n = len(pts)

    def objective(w):
        z = w @ pts
        return z.real**2 + z.imag**2

    best = np.inf
    for _ in range(8):
        w0 = rng.dirichlet(np.ones(n))
        res = minimize(
            objective,
            w0,
            method="SLSQP",
            bounds=[(0.0, 1.0)] * n,
            constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}],
        )
        if res.success:
            best = min(best, np.sqrt(max(res.fun, 0.0)))
    return best


def test_hull_distance_against_constrained_minimizer():
    rng = np.random.default_rng(17)
    for trial in range(25):
        n = int(rng.integers(2, 7))
        phases = rng.uniform(0, 2 * np.pi, size=n)
        fast = hull_min_distance(phases)
        slow = _hull_distance_slsqp(phases, rng)
        assert fast == pytest.approx(slow, abs=1e-6)


# One input per branch of the hull walk, with its weights bit for bit: an
# antipodal pair, one point, two triangles around the origin, a gap above pi,
# and a repeated point, whose singular first triangle is skipped.
PINNED_HULL_WEIGHTS = [
    ([0.0, np.pi], [0.5, 0.5]),
    ([1.3], [1.0]),
    ([0.0, 2.0, 4.0], [0.353070731859348, 0.29385853628130404, 0.353070731859348]),
    (
        [0.0, 1.0, 2.0, 3.5, 5.0],
        [0.33420636374603097, 0.19588879473207355, 0.0, 0.4699048415218956, 0.0],
    ),
    ([0.0, 1.0, 2.5], [0.5, 0.0, 0.5]),
    ([0.0, 0.0, 2.0, 4.0], [0.353070731859348, 0.0, 0.29385853628130404, 0.353070731859348]),
]


def test_hull_nearest_weights_achieve_the_distance():
    rng = np.random.default_rng(5)
    for phases, pinned in PINNED_HULL_WEIGHTS:
        assert hull_nearest_weights(phases).tolist() == pinned
        z = np.array(pinned) @ np.exp(1j * np.array(phases))
        assert abs(abs(z) - hull_min_distance(phases)) <= 1e-15, phases
    random_inputs = [rng.uniform(0, 2 * np.pi, size=int(rng.integers(1, 7))) for _ in range(25)]
    for phases in [np.array(p) for p, _ in PINNED_HULL_WEIGHTS] + random_inputs:
        w = hull_nearest_weights(phases)
        assert w.min() >= 0 and w.sum() == pytest.approx(1.0, abs=1e-12)
        z = w @ np.exp(1j * phases)
        assert abs(z) == pytest.approx(hull_min_distance(phases), abs=1e-9)


# --- generalized dephasing ---


def test_gen_dephasing_closed_examples():
    # clock unitaries reproduce the plain dephasing value in any dimension
    for d in (2, 3, 5):
        assert gen_dephasing_closed(clock_matrix(d), 0.9, 0.2) == pytest.approx(
            dephasing_closed(0.9, 0.2), abs=1e-12
        )
    assert gen_dephasing_closed(np.eye(3), 0.9, 0.2) == pytest.approx(0.5, abs=1e-12)
    u = np.diag([1.0, np.exp(1j * np.pi / 3)])
    assert gen_dephasing_closed(u, 0.8, 0.2) == pytest.approx(
        0.5 * (1 + 0.6 * 0.5), abs=1e-9
    )


def test_gen_dephasing_optimal_probe_attains_closed_form():
    from chandiscrim.channels import make_generalized_dephasing

    rng = np.random.default_rng(3)
    for d in (2, 3, 4):
        u = random_unitary(d, rng)
        probe = gen_dephasing_optimal_probe(u)
        ch1 = make_generalized_dephasing(u, 0.85)
        ch2 = make_generalized_dephasing(u, 0.25)
        fixed = discrim_fixed_single(ch1, ch2, probe).probability
        assert fixed == pytest.approx(gen_dephasing_closed(u, 0.85, 0.25), abs=1e-8)


def test_gen_dephasing_maxent_closed_matches_fixed_phi_plus():
    from chandiscrim.channels import make_generalized_dephasing

    rng = np.random.default_rng(17)
    for d in (2, 3, 4):
        diagonal = np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, d)))
        for u in (diagonal, random_unitary(d, rng)):
            ch1 = make_generalized_dephasing(u, 0.9)
            ch2 = make_generalized_dephasing(u, 0.2)
            fixed = discrim_fixed_entangled(ch1, ch2, max_entangled(d)).probability
            assert gen_dephasing_maxent_closed(u, 0.9, 0.2) == pytest.approx(fixed, abs=1e-12)


def test_gen_dephasing_maxent_falls_below_single_optimum():
    # for d >= 3 the centroid |Tr U|/d is farther out than the nearest hull point
    u = np.diag(np.exp(1j * np.array([0.0, 1.0, 2.5])))
    maxent = gen_dephasing_maxent_closed(u, 0.9, 0.2)
    single = gen_dephasing_closed(u, 0.9, 0.2)
    assert maxent == pytest.approx(0.7947, abs=1e-4)
    assert single == pytest.approx(0.8321, abs=1e-4)
    assert maxent < single


# --- amplitude damping closed forms ---


def test_ad_single_closed_regimes():
    value, theta = ad_single_closed(0.81, 0.36)
    assert value == pytest.approx(0.725, abs=1e-12)
    assert theta == pytest.approx(np.pi)
    value, theta = ad_single_closed(0.04, 0.01)
    assert value == pytest.approx(0.526207120918048, abs=1e-12)
    assert theta == pytest.approx(1.6698593718618788, abs=1e-9)
    # symmetric in the arguments; trivial at equal noise
    assert ad_single_closed(0.36, 0.81)[0] == pytest.approx(0.725, abs=1e-12)
    assert ad_single_closed(0.3, 0.3)[0] == pytest.approx(0.5)


def test_ad_single_closed_continuous_at_regime_boundary():
    mu1 = 0.16
    # pick mu2 with (sqrt(mu1)+sqrt(mu2))^2 = 1/2 exactly
    mu2 = (np.sqrt(0.5) - 0.4) ** 2
    above, _ = ad_single_closed(mu1, mu2 + 1e-9)
    below, _ = ad_single_closed(mu1, mu2 - 1e-9)
    assert above == pytest.approx(below, abs=1e-7)


def test_ad_single_theta_is_the_argmax():
    # the closed-form angle beats a dense scan of other angles
    ch1, ch2 = make_amplitude_damping(0.04), make_amplitude_damping(0.01)
    value, theta = ad_single_closed(0.04, 0.01)
    at_theta = discrim_fixed_single(ch1, ch2, bloch_qubit(theta, 0.0)).probability
    assert at_theta == pytest.approx(value, abs=1e-12)
    scan = max(
        discrim_fixed_single(ch1, ch2, bloch_qubit(t, 0.0)).probability
        for t in np.linspace(0, np.pi, 2001)
    )
    assert scan <= value + 1e-9


def test_ad_maxent_closed():
    assert ad_maxent_closed(0.81, 0.36) == pytest.approx(0.65, abs=1e-12)
    assert ad_maxent_closed(0.04, 0.01) == pytest.approx(0.5290296855201959, abs=1e-12)
    assert ad_maxent_closed(0.5, 0.5) == pytest.approx(0.5)
    fixed = discrim_fixed_entangled(
        make_amplitude_damping(0.04), make_amplitude_damping(0.01), max_entangled(2)
    )
    assert fixed.probability == pytest.approx(0.5290296855201959, abs=1e-12)


def test_ad_nonmax_norm():
    # p = 1/2 reduces to the maximally entangled trace norm
    for mu1, mu2 in ((0.81, 0.36), (0.36, 0.09), (0.04, 0.01)):
        me_norm = 4 * (ad_maxent_closed(mu1, mu2) - 0.5)
        assert ad_nonmax_norm(0.5, mu1, mu2) == pytest.approx(me_norm, abs=1e-12)
    norm = ad_nonmax_norm(0.1, 0.36, 0.09)
    assert norm == pytest.approx(0.5454053570954059, abs=1e-12)
    assert norm > 2 * (0.36 - 0.09)
    # p -> 0 tends to the single-system regime-1 norm
    assert ad_nonmax_norm(1e-9, 0.36, 0.09) == pytest.approx(0.54, abs=1e-4)
    with pytest.raises(ValueError):
        ad_nonmax_norm(0.0, 0.36, 0.09)


def test_ad_nonmax_closed_matches_fixed_probe():
    ch1, ch2 = make_amplitude_damping(0.36), make_amplitude_damping(0.09)
    for p in (0.1, 0.3, 0.5, 0.8):
        fixed = discrim_fixed_entangled(ch1, ch2, schmidt_pair(p)).probability
        assert fixed == pytest.approx(ad_nonmax_closed(p, 0.36, 0.09), abs=1e-10)


def test_ad_regime_separation_sign():
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 60:
        mu2, mu1 = np.sort(rng.uniform(0.01, 0.99, size=2))
        c = (np.sqrt(mu1) + np.sqrt(mu2)) ** 2
        if mu1 - mu2 < 1e-6 or abs(c - 0.5) < 1e-3:
            continue
        checked += 1
        gap = ad_single_closed(mu1, mu2)[0] - ad_maxent_closed(mu1, mu2)
        assert np.sign(gap) == np.sign(c - 0.5)


# --- erasure ---


def test_erasure_closed_and_probe_independence():
    assert erasure_closed(0.8, 0.3) == pytest.approx(0.75)
    rng = np.random.default_rng(15)
    ch1, ch2 = make_erasure(2, 0.8), make_erasure(2, 0.3)
    for _ in range(20):
        single = discrim_fixed_single(ch1, ch2, random_pure(2, rng)).probability
        assert single == pytest.approx(0.75, abs=1e-12)
        ent = discrim_fixed_entangled(ch1, ch2, random_bipartite(2, 2, rng)).probability
        assert ent == pytest.approx(0.75, abs=1e-12)


# --- product-probe reduction ---


def test_product_probe_reduces_to_single():
    rng = np.random.default_rng(8)
    ch1, ch2 = make_amplitude_damping(0.7), make_amplitude_damping(0.2)
    for _ in range(20):
        a = random_pure(2, rng)
        b = random_pure(3, rng)
        ent = discrim_fixed_entangled(ch1, ch2, product_probe(a, b)).probability
        single = discrim_fixed_single(ch1, ch2, a).probability
        assert ent == pytest.approx(single, abs=1e-10)


# --- mixed-unitary bounds ---


def test_single_bound_vanishes_for_equal_ensembles():
    rng = np.random.default_rng(2)
    u = random_unitary(3, rng)
    pairs = [(u, u, 0.4), (np.eye(3), np.eye(3), 0.6)]
    # sqrt(1 - |overlap|^2) amplifies unit-overlap roundoff to ~1e-8
    assert mixed_unitary_single_bound(pairs, random_pure(3, rng)) == pytest.approx(0.0, abs=1e-7)
    assert mixed_unitary_maxent_bound(pairs) == pytest.approx(0.0, abs=1e-7)


def test_qutrit_pair_bounds():
    ch1, ch2 = mixed_unitary_pair_d3()
    pairs = ensemble_pairs(ch1, ch2)
    # the sign-flip pair leaves |0> invariant up to phase, so it contributes nothing
    second = [pairs[1]]
    assert mixed_unitary_single_bound(second, basis_probe(3, 0)) == pytest.approx(
        0.0, abs=1e-9
    )
    full = mixed_unitary_single_bound(pairs, basis_probe(3, 0))
    assert full < 2.0 - 1e-6
    ent = mixed_unitary_maxent_bound(pairs)
    assert ent == pytest.approx(1.9618726943880422, abs=1e-12)
    # |phi+> evaluation respects the entangled bound
    me = discrim_fixed_entangled(ch1, ch2, max_entangled(3)).probability
    assert me <= 0.5 + ent / 4 + 1e-12


def test_dimension6_pair_bounds():
    ch1, ch2 = mixed_unitary_pair_d6()
    pairs = ensemble_pairs(ch1, ch2)
    # |0> separates every unitary pair at once: the bound is saturated at 2
    assert mixed_unitary_single_bound(pairs, basis_probe(6, 0)) == pytest.approx(2.0)
    ent = mixed_unitary_maxent_bound(pairs)
    assert ent == pytest.approx(1.6516045333792047, abs=1e-12)
    me = discrim_fixed_entangled(ch1, ch2, max_entangled(6)).probability
    assert me <= 0.5 + ent / 4 + 1e-12
    assert me < 1 - 1e-3


def test_ensemble_pairs_requires_shared_weights():
    ch1, _ = mixed_unitary_pair_d3((0.5, 0.3, 0.2))
    _, ch2 = mixed_unitary_pair_d3((0.2, 0.3, 0.5))
    with pytest.raises(ValueError, match="weights"):
        ensemble_pairs(ch1, ch2)


def test_ensemble_pairs_derives_the_weights():
    for make in (mixed_unitary_pair_d3, mixed_unitary_pair_d6):
        ch1, ch2 = make((0.5, 0.3, 0.2))
        pairs = ensemble_pairs(ch1, ch2)
        np.testing.assert_allclose([q for _, _, q in pairs], [0.5, 0.3, 0.2], rtol=0, atol=1e-15)
        for v, w, _ in pairs:
            assert is_unitary(v) and is_unitary(w)


def test_ensemble_pairs_rejects_channels_that_are_not_mixed_unitary():
    # amplitude damping has equal branch norms in both channels, so only the
    # unitarity of each branch over sqrt(q) can reject it
    ch1, ch2 = make_amplitude_damping(0.5), make_amplitude_damping(0.5)
    with pytest.raises(ValueError, match="not unitary within 1e-10"):
        ensemble_pairs(ch1, ch2)
    with pytest.raises(ValueError, match="channel dimensions differ"):
        ensemble_pairs(mixed_unitary_pair_d3()[0], mixed_unitary_pair_d6()[0])


# --- global probability bounds ---


def test_probability_stays_in_range():
    rng = np.random.default_rng(101)
    channel_pairs = [
        (make_depolarizing(2, 0.9), make_depolarizing(2, 0.3)),
        (make_amplitude_damping(0.8), make_amplitude_damping(0.1)),
        (make_erasure(2, 0.9), make_erasure(2, 0.2)),
        mixed_unitary_pair_d3(),
    ]
    for ch1, ch2 in channel_pairs:
        d = ch1.dim_in
        for _ in range(10):
            p = discrim_fixed_single(ch1, ch2, random_pure(d, rng)).probability
            assert 0.5 - 1e-9 <= p <= 1 + 1e-9
            p = discrim_fixed_entangled(
                ch1, ch2, random_bipartite(d, d, rng)
            ).probability
            assert 0.5 - 1e-9 <= p <= 1 + 1e-9
