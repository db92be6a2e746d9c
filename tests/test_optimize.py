import contextlib
import io

import numpy as np
import pytest

from chandiscrim import cli, optimize
from chandiscrim.channels import (
    apply,
    make_amplitude_damping,
    make_depolarizing,
    make_dephasing,
    make_erasure,
    make_generalized_dephasing,
    mixed_unitary_pair_d3,
)
from chandiscrim.discrimination import (
    ad_single_closed,
    dephasing_closed,
    depolarizing_maxent_closed,
    depolarizing_single_closed,
    discrim_fixed_entangled,
    discrim_fixed_single,
    helstrom,
    helstrom_pure,
)
from chandiscrim.optimize import (
    OptimizerOptions,
    optimize_entangled,
    optimize_pairs,
    optimize_single,
)
from chandiscrim.probes import (
    PureProbe,
    basis_probe,
    max_entangled,
    uniform_superposition,
)
from helpers import stinespring_channel

FAST = OptimizerOptions(restarts=4, seed=11)


def test_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(restarts=0)
    with pytest.raises(ValueError):
        OptimizerOptions(step_tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerOptions(step_tolerance=float("nan"))  # would end every search at once
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        OptimizerOptions(step_tolerance=float("inf"))  # would stop every start after one step
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
    amps = res.probe.amplitudes
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
    assert np.array_equal(a.probe.amplitudes, b.probe.amplitudes)
    assert a.optimizer_meta == b.optimizer_meta


def test_fixed_starts_are_never_lost():
    # a search that stops after one step still reports at least the value of each
    # of its fixed starts: the uniform superposition and |0> for single probes,
    # |phi+> and |00> for bipartite ones
    short = OptimizerOptions(restarts=1, max_iterations=1, step_tolerance=1e-2, seed=0)
    pairs = [
        (make_amplitude_damping(0.81), make_amplitude_damping(0.36)),
        (make_dephasing(3, 0.9), make_dephasing(3, 0.2)),
        (make_erasure(2, 0.9), make_erasure(2, 0.4)),
    ]
    for ch1, ch2 in pairs:
        d = ch1.dim_in
        for p1 in (0.5, 0.3):
            res = optimize_single(ch1, ch2, short, p1=p1)
            for probe in (uniform_superposition(d), basis_probe(d, 0)):
                fixed = discrim_fixed_single(ch1, ch2, probe, p1).probability
                assert res.probability >= fixed - 1e-12
            res = optimize_entangled(ch1, ch2, short, p1=p1)
            zero = PureProbe(np.eye(d * d)[0].reshape(d, d))
            for probe in (max_entangled(d), zero):
                fixed = discrim_fixed_entangled(ch1, ch2, probe, p1).probability
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
    # the optimizer's kernel and the channel-apply path compute the same number
    # for the probe a search reports, here on a channel with dim_out != dim_in
    ch1, ch2 = make_erasure(2, 0.9), make_erasure(2, 0.4)
    res = optimize_single(
        ch1, ch2, OptimizerOptions(restarts=1, max_iterations=1, step_tolerance=1e-1, seed=0)
    )
    rho = res.probe.density()
    assert res.probability == pytest.approx(helstrom(apply(ch1, rho), apply(ch2, rho)), abs=1e-12)


def test_pinned_trajectories():
    # exact values and evaluation counts of two searches; a change that moves
    # a trajectory fails here
    res = optimize_single(
        make_amplitude_damping(0.3), make_amplitude_damping(0.1), OptimizerOptions(restarts=4)
    )
    assert res.probability.hex() == "0x1.3333333333333p-1"
    assert res.optimizer_meta["evaluations"] == 232
    res = optimize_entangled(
        make_dephasing(3, 0.9), make_dephasing(3, 0.2), OptimizerOptions(restarts=2)
    )
    assert res.probability.hex() == "0x1.b333333333338p-1"
    assert res.optimizer_meta["evaluations"] == 48


def _objective(ch1, ch2, shape):
    """Equal-prior values of the probes that parameter rows ``[re | im]`` encode."""
    k1, k2 = np.stack(ch1.kraus), np.stack(ch2.kraus)

    def probability(xs):
        half = xs.shape[1] // 2
        v = xs[:, :half] + 1j * xs[:, half:]
        v = v / np.linalg.norm(v, axis=1, keepdims=True)
        return helstrom_pure(k1, k2, v.reshape(-1, *shape), 0.5)

    return probability


def _oracle_search(fn, x0, step_tolerance, max_sweeps):
    """A compass search scoring one point per objective call, written as a plain loop.

    The brute-force reference for the see-saw: first-improvement coordinate
    polls on the parameters ``[re | im]``, the step halved after a sweep
    without gain, the scale fixed after each sweep with one.
    """
    x = np.asarray(x0, dtype=float).copy()
    fx = fn(x[None])[0]
    step = 0.3
    sweeps = 0
    while step > step_tolerance and sweeps < max_sweeps:
        sweeps += 1
        improved = False
        for k in range(x.size):
            base = x[k]
            for delta in (step, -step):
                x[k] = base + delta
                fc = fn(x[None])[0]
                if fc > fx:
                    fx = fc
                    base = x[k]
                    improved = True
                    break
            x[k] = base
        if improved:
            x /= np.linalg.norm(x)
            fx = fn(x[None])[0]
        else:
            step *= 0.5
    return fx


def _oracle_cases():
    """(label, optimizer, ch1, ch2, opts): every pair verify optimizes, then random pairs."""
    one = OptimizerOptions(restarts=1, seed=5)
    loose = OptimizerOptions(restarts=1, step_tolerance=1e-6, max_iterations=1500, seed=5)
    u = np.diag([1.0, np.exp(1j * np.pi / 3.0)])
    cases = [
        (f"depolarizing d={d}", optimize_single, make_depolarizing(d, 0.9), make_depolarizing(d, 0.3), one)
        for d in (2, 3, 4)
    ]
    cases.append(
        ("depolarizing d=2", optimize_entangled, make_depolarizing(2, 0.9), make_depolarizing(2, 0.3), one)
    )
    for d in (2, 3, 4, 5):
        pair = (make_dephasing(d, 0.9), make_dephasing(d, 0.2))
        cases.append((f"dephasing d={d}", optimize_single, *pair, one))
        cases.append((f"dephasing d={d}", optimize_entangled, *pair, one if d <= 3 else loose))
    pair = (make_generalized_dephasing(u, 0.8), make_generalized_dephasing(u, 0.2))
    cases.append(("unitary mixing", optimize_single, *pair, one))
    cases.append(("unitary mixing", optimize_entangled, *pair, one))
    for mu1, mu2 in [(0.81, 0.36), (0.04, 0.01)]:
        pair = (make_amplitude_damping(mu1), make_amplitude_damping(mu2))
        cases.append((f"amplitude damping {mu1}/{mu2}", optimize_single, *pair, one))
    cases.append(
        ("mixed-unitary d3", optimize_single, *mixed_unitary_pair_d3(),
         OptimizerOptions(restarts=1, step_tolerance=1e-6, seed=5))
    )
    rng = np.random.default_rng(8)
    for i in range(8):
        d, b1, b2 = 2 + i % 2, 1 + i % 3, 1 + (i + 1) % 3
        pair = (stinespring_channel(rng, d, d, b1), stinespring_channel(rng, d, d, b2))
        for optimizer in (optimize_single, optimize_entangled):
            cases.append((f"random {i} d={d} r={b1},{b2}", optimizer, *pair, one))
    return cases


def test_seesaw_never_ends_below_one_point_oracle():
    # started from the probe a search reports, the compass oracle never finds
    # a value more than 1e-12 above it
    for label, optimizer, ch1, ch2, opts in _oracle_cases():
        res = optimizer(ch1, ch2, opts)
        found = res.probe.amplitudes.reshape(-1)
        fn = _objective(ch1, ch2, res.probe.amplitudes.shape)
        x0 = np.concatenate([found.real, found.imag])
        oracle = _oracle_search(fn, x0, opts.step_tolerance, opts.max_iterations)
        assert res.probability >= oracle - 1e-12, (label, optimizer.__name__, res.probability, oracle)


@pytest.mark.parametrize(
    "optimizer, channels, restarts, opts",
    [
        # wide: 65 or 66 starts share every kernel call
        (optimize_single, (make_amplitude_damping(0.3), make_amplitude_damping(0.1)), 63,
         dict(max_iterations=6)),
        (optimize_entangled, (make_dephasing(3, 0.9), make_dephasing(3, 0.2)), 64,
         dict(max_iterations=3)),
        # narrow: the two fixed starts and one random one
        (optimize_single, (make_amplitude_damping(0.3), make_amplitude_damping(0.1)), 1, {}),
        (optimize_entangled, (make_dephasing(3, 0.9), make_dephasing(3, 0.2)), 1,
         dict(step_tolerance=1e-5)),
    ],
)
def test_batched_polls_match_one_point_oracle(monkeypatch, optimizer, channels, restarts, opts):
    # the stacked see-saw scores every start as if it were alone: with each
    # measurement, eigen-solve and final value computed for one probe per call,
    # the path, the per-restart values and the evaluation count are the same
    opts = OptimizerOptions(restarts=restarts, seed=17, **opts)
    batched = optimizer(*channels, opts)
    measure, eigh = optimize._measure, np.linalg.eigh

    def one_point_measure(k1, k2, p1, psi):
        parts = [measure(k1, k2, p1, psi[j : j + 1]) for j in range(len(psi))]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def one_point_eigh(a):
        parts = [eigh(a[j : j + 1]) for j in range(len(a))]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def one_point_helstrom(k1, k2, psi, p1):
        return np.concatenate([helstrom_pure(k1, k2, psi[j : j + 1], p1) for j in range(len(psi))])

    monkeypatch.setattr(optimize, "_measure", one_point_measure)
    monkeypatch.setattr(np.linalg, "eigh", one_point_eigh)
    monkeypatch.setattr(optimize, "helstrom_pure", one_point_helstrom)
    oracle = optimizer(*channels, opts)
    assert batched.probability.hex() == oracle.probability.hex()
    assert batched.optimizer_meta == oracle.optimizer_meta
    assert np.array_equal(batched.probe.amplitudes, oracle.probe.amplitudes)


@pytest.mark.parametrize("p1", [0.5, 0.3])
def test_seesaw_steps_never_lower_the_value(monkeypatch, p1):
    # along the recorded trajectory of one start, the see-saw probe of each
    # step is worth at least the probe it came from, up to the rounding of two
    # D x D eigen-solves, and every accepted value is above the one before
    measure = optimize._measure
    calls = []

    def recorded(k1, k2, p1, psi):
        values, s = measure(k1, k2, p1, psi)
        calls.append(values.copy())
        return values, s

    monkeypatch.setattr(optimize, "_measure", recorded)
    rng = np.random.default_rng(12)
    opts = OptimizerOptions(restarts=1, step_tolerance=1e-12)
    for i in range(6):
        d, dim_b = 2 + i % 2, 1 if i < 3 else 2 + i % 2
        ch1, ch2 = stinespring_channel(rng, d, d, 1 + i % 3), stinespring_channel(rng, d, d, 2)
        start = rng.standard_normal(d * dim_b) + 1j * rng.standard_normal(d * dim_b)
        calls.clear()
        starts = (start / np.linalg.norm(start))[None, None]  # one pair, one start
        optimize._seesaw(ch1.kraus[None], ch2.kraus[None], p1, starts, dim_b, opts)
        accepted = [calls[0][0]]
        for near, far in calls[1:]:
            assert near >= accepted[-1] - 1e-14, (i, near, accepted[-1])
            if max(near, far) > accepted[-1]:
                accepted.append(max(near, far))
        assert len(calls) > 2 and len(accepted) == len(calls) - 1
        assert all(b > a for a, b in zip(accepted, accepted[1:]))


def test_reported_probability_is_the_fixed_probe_value():
    # the probability a search reports is what discrim_fixed_* gives for the
    # probe it reports, bit for bit, also when the search stops at once
    ch1, ch2 = make_amplitude_damping(0.3), make_amplitude_damping(0.1)
    d3 = (make_dephasing(3, 0.9), make_dephasing(3, 0.2))
    rng = np.random.default_rng(6)
    random = (stinespring_channel(rng, 3, 3, 2), stinespring_channel(rng, 3, 3, 3))
    for pair in [(ch1, ch2), d3, random]:
        for p1 in (0.5, 0.3):
            for opts in (FAST, OptimizerOptions(restarts=1, max_iterations=1, seed=2)):
                res = optimize_single(*pair, opts, p1=p1)
                assert discrim_fixed_single(*pair, res.probe, p1).probability == res.probability
                res = optimize_entangled(*pair, opts, p1=p1)
                assert discrim_fixed_entangled(*pair, res.probe, p1).probability == res.probability
                assert max(res.optimizer_meta["restart_values"]) == res.probability


def test_seesaw_makes_one_batched_eigh_per_step(monkeypatch):
    # machine-independent guard on the stacking: every see-saw step of a d = 4
    # entangled search is one eigh of all live differences and one of their
    # M matrices, and the search stays under a pinned evaluation count
    rows, eighs = [], []
    difference, eigh = optimize.pure_difference, np.linalg.eigh

    def counted_difference(k1, k2, psi, p1):
        rows.append(len(psi))
        return difference(k1, k2, psi, p1)

    def counted_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(optimize, "pure_difference", counted_difference)
    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    opts = OptimizerOptions(restarts=4, seed=3)
    res = optimize_entangled(make_dephasing(4, 0.9), make_dephasing(4, 0.2), opts)
    starts = opts.restarts + 2
    steps = len(rows) - 1
    assert res.probability == pytest.approx(dephasing_closed(0.9, 0.2), abs=1e-12)
    assert 1 <= steps <= opts.max_iterations
    assert rows[0] == starts and all(0 < m <= 2 * starts and m % 2 == 0 for m in rows[1:])
    assert len(eighs) == 2 * steps + 1
    assert [shape[0] for shape in eighs[::2]] == rows  # the differences, all 16 x 16
    assert all(shape[1:] == (16, 16) for shape in eighs)
    assert [2 * shape[0] for shape in eighs[1::2]] == rows[1:]  # the M matrices
    assert res.optimizer_meta["evaluations"] == sum(rows) + starts
    assert res.optimizer_meta["evaluations"] <= 100  # 74 when pinned


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p1", [0.3, 0.8])
def test_optimizers_take_any_prior(d, p1):
    # every pure probe gives the depolarizing value (1/2)(1 + |a + b/d| +
    # (d - 1)|b/d|); the pair is jointly covariant, so the entangled optimum is
    # the same expression with d^2 in place of d
    q1, q2 = 0.9, 0.3
    a = p1 * q1 - (1.0 - p1) * q2
    b = p1 * (1.0 - q1) - (1.0 - p1) * (1.0 - q2)

    def value(dim):
        return 0.5 * (1.0 + abs(a + b / dim) + (dim - 1) * abs(b / dim))

    pair = (make_depolarizing(d, q1), make_depolarizing(d, q2))
    assert optimize_single(*pair, FAST, p1=p1).probability == pytest.approx(value(d), abs=1e-9)
    assert optimize_entangled(*pair, FAST, p1=p1).probability == pytest.approx(value(d * d), abs=1e-9)
    for bad in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValueError, match="p1 must lie in"):
            optimize_single(*pair, FAST, p1=bad)
        with pytest.raises(ValueError, match="p1 must lie in"):
            optimize_entangled(*pair, FAST, p1=bad)


def _pair_lists():
    """(label, pairs, p1) lists for ``optimize_pairs``: one shape each, then shapes mixed."""
    grid = [
        (make_amplitude_damping(mu1), make_amplitude_damping(mu2))
        for mu1 in (0.04, 0.3, 0.81)
        for mu2 in (0.01, 0.36)
    ]
    rng = np.random.default_rng(21)
    random = {
        d: [(stinespring_channel(rng, d, d, 2), stinespring_channel(rng, d, d, 3)) for _ in range(4)]
        for d in (2, 3)
    }
    mixed = [
        random[3][0],
        (make_dephasing(2, 0.9), make_dephasing(2, 0.2)),
        grid[0],
        (make_dephasing(3, 0.9), make_dephasing(3, 0.2)),
        random[2][1],
        grid[3],
    ]
    cases = [
        ("amplitude damping grid", grid, 0.5),
        ("random d=2", random[2], 0.5),
        ("random d=3", random[3], 0.5),
        ("amplitude damping grid", grid, 0.3),
        ("random d=3", random[3], 0.3),
        ("mixed shapes", mixed, 0.5),
    ]
    return [pytest.param(*case, id=f"{case[0]} p1={case[2]}") for case in cases]


@pytest.mark.parametrize("label, pairs, p1", _pair_lists())
@pytest.mark.parametrize(
    "probe_class, one_pair",
    [("single", optimize_single), ("general_entangled", optimize_entangled)],
    ids=["single", "entangled"],
)
def test_optimize_pairs_matches_one_pair_calls(label, pairs, p1, probe_class, one_pair):
    # running the searches of many pairs as one stack changes nothing: each
    # result, in input order, is bit for bit that of the pair searched alone
    opts = OptimizerOptions(restarts=3, seed=13)
    together = optimize_pairs(pairs, probe_class, opts, p1=p1)
    assert len(together) == len(pairs)
    for i, (res, pair) in enumerate(zip(together, pairs)):
        alone = one_pair(*pair, opts, p1=p1)
        assert res.probability.hex() == alone.probability.hex(), (label, i)
        assert np.array_equal(res.probe.amplitudes, alone.probe.amplitudes), (label, i)
        assert res.optimizer_meta == alone.optimizer_meta, (label, i)
        assert (res.probe_class, res.method) == (alone.probe_class, alone.method)


def test_optimize_pairs_rejects_what_the_one_pair_calls_reject():
    pair = (make_amplitude_damping(0.3), make_amplitude_damping(0.1))
    assert optimize_pairs([], "single") == []
    with pytest.raises(ValueError, match="probe_class must be"):
        optimize_pairs([pair], "max_entangled")
    with pytest.raises(ValueError, match="p1 must lie in"):
        optimize_pairs([pair], "single", FAST, p1=1.5)
    with pytest.raises(ValueError, match="channel dimensions differ"):
        optimize_pairs([pair, (make_dephasing(3, 0.9), make_dephasing(2, 0.2))], "single")


def test_sweep_runs_its_searches_as_one_stack(monkeypatch):
    # machine-independent guard on the sweep batching: a 2 x 2 sweep makes
    # one eigh per see-saw step of its longest search, twice, plus the first
    # measurement, not one set of solves per grid point
    eighs = []
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        eighs.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    mus = [(mu1, mu2) for mu1 in (0.2, 0.6) for mu2 in (0.1, 0.5)]
    opts = OptimizerOptions(restarts=2, seed=3)
    alone = []
    for mu1, mu2 in mus:
        eighs.clear()
        optimize_single(make_amplitude_damping(mu1), make_amplitude_damping(mu2), opts)
        alone.append(len(eighs))
    steps = [(count - 1) // 2 for count in alone]
    assert all(count == 2 * k + 1 for count, k in zip(alone, steps))
    eighs.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([
            "sweep", "amplitude-damping", "--param", "mu1=0.2:0.6:0.4", "--param", "mu2=0.1:0.5:0.4",
            "--probes", "optimize-single", "--restarts", "2", "--seed", "3",
        ])
    assert code == 0, err.getvalue()
    assert len(out.getvalue().splitlines()) == 1 + len(mus)
    assert len(eighs) == 2 * max(steps) + 1 < sum(alone)
    assert eighs[0] == (len(mus) * (opts.restarts + 2), 2, 2)


def test_optimize_pairs_splits_stacks_that_would_pass_the_entry_cap(monkeypatch):
    # a stack takes as many pairs as keep (starts) x (n1 + n2) * D * n under
    # _STACK_ENTRIES, so memory does not grow with the number of pairs; a
    # pair over the cap runs alone, and results match the one-pair calls
    sizes = []
    seesaw = optimize._seesaw

    def recorded(k1, k2, p1, starts, dim_b, opts):
        sizes.append(starts.shape[0] * starts.shape[1] * (k1.shape[1] + k2.shape[1])
                     * k1.shape[2] * dim_b * k1.shape[3] * dim_b)
        assert starts.shape[0] == len(k1) == len(k2)
        return seesaw(k1, k2, p1, starts, dim_b, opts)

    monkeypatch.setattr(optimize, "_seesaw", recorded)
    pairs = [(make_depolarizing(3, q1), make_depolarizing(3, 0.2)) for q1 in (0.1, 0.4, 0.6, 0.8, 0.9)]
    per_pair = 6 * 18 * 9 * 9  # 6 starts, 9 + 9 Kraus operators K (x) 1 of shape 9 x 9
    opts = OptimizerOptions(restarts=4, seed=5)
    together = optimize_pairs(pairs, "general_entangled", opts)
    fit = optimize._STACK_ENTRIES // per_pair
    assert 1 < fit < len(pairs)
    assert sizes == [fit * per_pair] * (len(pairs) // fit) + [len(pairs) % fit * per_pair]
    for res, pair in zip(together, pairs):
        alone = optimize_entangled(*pair, opts)
        assert res.probability.hex() == alone.probability.hex()
        assert np.array_equal(res.probe.amplitudes, alone.probe.amplitudes)
        assert res.optimizer_meta == alone.optimizer_meta

    sizes.clear()
    optimize_pairs(pairs[:2], "general_entangled", OptimizerOptions(seed=5))  # 34 starts
    assert sizes == [34 * 18 * 9 * 9] * 2 and sizes[0] > optimize._STACK_ENTRIES
