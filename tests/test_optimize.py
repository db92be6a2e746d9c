import numpy as np
import pytest

from chandiscrim.channels import (
    make_amplitude_damping,
    make_depolarizing,
    make_dephasing,
    make_erasure,
)
from chandiscrim.discrimination import (
    ad_single_closed,
    dephasing_closed,
    depolarizing_maxent_closed,
    depolarizing_single_closed,
    discrim_fixed_single,
)
from chandiscrim.optimize import OptimizerOptions, optimize_entangled, optimize_single
from chandiscrim.probes import SinglePureProbe, bloch_qubit

FAST = OptimizerOptions(restarts=4, seed=11)


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizerOptions(step_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(step_tolerance=float("nan"))  # would end every search at once
    with pytest.raises(ValueError):
        OptimizerOptions(max_iterations=0)


def test_single_depolarizing_matches_constant():
    res = optimize_single(make_depolarizing(2, 0.9), make_depolarizing(2, 0.3), FAST)
    assert res.probability == pytest.approx(depolarizing_single_closed(2, 0.9, 0.3), abs=1e-6)
    assert res.method == "optimizer"
    assert res.probe_class == "single"
    assert res.optimizer_meta["final_step"] <= FAST.step_tolerance


def test_single_dephasing_qutrit():
    res = optimize_single(make_dephasing(3, 0.9), make_dephasing(3, 0.2), FAST)
    assert res.probability == pytest.approx(dephasing_closed(0.9, 0.2), abs=1e-6)


def test_single_amplitude_damping_interior_optimum():
    res = optimize_single(
        make_amplitude_damping(0.04), make_amplitude_damping(0.01), FAST
    )
    value, theta = ad_single_closed(0.04, 0.01)
    assert res.probability == pytest.approx(value, abs=1e-6)
    # recover the Bloch angle from the optimal probe (phases are gauge)
    amps = np.array([complex(re, im) for re, im in res.probe["amplitudes"]])
    found_theta = 2 * np.arcsin(np.clip(abs(amps[1]), 0, 1))
    assert found_theta == pytest.approx(theta, abs=1e-3)


def test_entangled_depolarizing_reaches_maxent_value():
    res = optimize_entangled(make_depolarizing(2, 0.9), make_depolarizing(2, 0.3), FAST)
    assert res.probability == pytest.approx(depolarizing_maxent_closed(2, 0.9, 0.3), abs=1e-6)
    assert res.probe_class == "general_entangled"


def test_erasure_every_restart_lands_on_the_constant():
    res = optimize_entangled(make_erasure(2, 0.8), make_erasure(2, 0.3), FAST)
    values = res.optimizer_meta["restart_values"]
    np.testing.assert_allclose(values, 0.75, atol=1e-9)
    assert res.probability == pytest.approx(0.75, abs=1e-9)


def test_same_seed_reproduces_bitwise():
    ch1, ch2 = make_amplitude_damping(0.5), make_amplitude_damping(0.2)
    a = optimize_single(ch1, ch2, OptimizerOptions(restarts=3, seed=5))
    b = optimize_single(ch1, ch2, OptimizerOptions(restarts=3, seed=5))
    assert a.probability == b.probability
    assert a.probe == b.probe
    assert a.optimizer_meta == b.optimizer_meta


def test_warm_start_is_never_lost():
    ch1, ch2 = make_amplitude_damping(0.81), make_amplitude_damping(0.36)
    warm = bloch_qubit(np.pi, 0.0)
    fixed = discrim_fixed_single(ch1, ch2, warm).probability
    res = optimize_single(
        ch1,
        ch2,
        OptimizerOptions(restarts=1, max_iterations=3, step_tolerance=1e-2, seed=0),
        warm_starts=[warm],
    )
    assert res.probability >= fixed - 1e-12


def test_closed_forms_agree_with_oracle_on_parameter_grids():
    # 20 parameter points per family where the closed form is the known optimum
    grid = OptimizerOptions(restarts=2, seed=29)
    qs = [(0.05 + 0.9 * k / 19, 0.95 - 0.6 * k / 19) for k in range(20)]

    for q1, q2 in qs:
        if abs(q1 - q2) < 1e-3:
            continue
        found = optimize_single(make_depolarizing(2, q1), make_depolarizing(2, q2), grid)
        assert abs(found.probability - depolarizing_single_closed(2, q1, q2)) <= 1e-5
        ent = optimize_entangled(make_depolarizing(2, q1), make_depolarizing(2, q2), grid)
        assert abs(ent.probability - depolarizing_maxent_closed(2, q1, q2)) <= 1e-5

    for k in range(20):
        r1, r2 = 0.05 + 0.9 * k / 19, 0.9 - 0.85 * k / 19
        d = 2 + k % 3
        found = optimize_single(make_dephasing(d, r1), make_dephasing(d, r2), grid)
        assert abs(found.probability - dephasing_closed(r1, r2)) <= 1e-5

    for k in range(20):
        mu1, mu2 = 0.03 + 0.9 * k / 19, 0.02 + 0.5 * k / 19
        found = optimize_single(
            make_amplitude_damping(mu1), make_amplitude_damping(mu2), grid
        )
        assert abs(found.probability - ad_single_closed(mu1, mu2)[0]) <= 1e-5

    from chandiscrim.discrimination import erasure_closed

    for k in range(20):
        e1, e2 = 0.05 + 0.9 * k / 19, 0.9 - 0.8 * k / 19
        found = optimize_single(make_erasure(2, e1), make_erasure(2, e2), grid)
        assert abs(found.probability - erasure_closed(e1, e2)) <= 1e-5


def test_objective_agrees_with_fixed_evaluation():
    # the optimizer's fast path and the channel-apply path compute the same number
    ch1, ch2 = make_erasure(2, 0.9), make_erasure(2, 0.4)
    probe = SinglePureProbe(np.array([0.6, 0.8j]))
    res = optimize_single(
        ch1, ch2,
        OptimizerOptions(restarts=1, max_iterations=1, step_tolerance=1e-1, seed=0),
        warm_starts=[probe],
    )
    fixed = discrim_fixed_single(ch1, ch2, probe).probability
    assert res.probability == pytest.approx(fixed, abs=1e-12)
