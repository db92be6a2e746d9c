"""Acceptance battery: one test per headline criterion, each printing a verdict.

Every check compares an implementation value against an independent route at
a fixed tolerance: closed forms against the brute-force probe optimizer,
fixed-probe Helstrom evaluations against frozen hand-derived numbers, and
structural inequalities with explicit margins. Run with ``pytest -s`` to see
the per-criterion verdict lines.
"""

import pytest

from chandiscrim.verify import run_acceptance, run_criterion

CRITERIA = {
    1: "depolarizing single-probe constancy and closed form (d=2,3,4)",
    2: "depolarizing qubit entangled optimum and monotone advantage",
    3: "dephasing: single probe optimal, entanglement useless (d=2..5)",
    4: "generalized dephasing closed form via eigenphase hull geometry",
    5: "amplitude-damping probe-class regimes and 200-point sign grid",
    6: "weakly entangled Schmidt probe beats the single-system optimum",
    7: "qutrit mixed-unitary pair: perfect only with the tuned probe",
    8: "dimension-6 mixed-unitary pair: |0> perfect, |phi+> capped",
    9: "erasure distinguishability is probe independent (400 probes)",
    10: "framework sanity: Helstrom, product reduction, CPTP residuals",
}


def _run(number):
    reports = run_criterion(number, tolerance_scale=1.0, seed=0)
    assert reports, f"criterion {number} produced no checks"
    failed = [r for r in reports if not r.passed]
    status = "PASS" if not failed else "FAIL"
    print(
        f"criterion-{number:<2} {status}  "
        f"({len(reports) - len(failed)}/{len(reports)} checks)  {CRITERIA[number]}"
    )
    details = "; ".join(
        f"{r.scenario_id}: expected {r.expected!r} got {r.computed!r} "
        f"(tol {r.tolerance!r}, {r.kind})"
        for r in failed
    )
    assert not failed, details


@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(number):
    _run(number)


# (scenario_id, passed, computed as float.hex()) of every report of
# run_acceptance(seed=0). A refactor that claims to keep the verify values
# keeps these exactly; an intended change of a value edits its line here.
PINNED_SEED_0 = [
    ('c1.d2.constancy', True, '0x1.0000000000000p-52'),
    ('c1.d2.closed', True, '0x1.4cccccccccccdp-1'),
    ('c1.d2.optimizer', True, '0x1.4cccccccccccep-1'),
    ('c1.d3.constancy', True, '0x1.8000000000000p-52'),
    ('c1.d3.closed', True, '0x1.6666666666666p-1'),
    ('c1.d3.optimizer', True, '0x1.6666666666669p-1'),
    ('c1.d4.constancy', True, '0x1.8000000000000p-52'),
    ('c1.d4.closed', True, '0x1.7333333333334p-1'),
    ('c1.d4.optimizer', True, '0x1.7333333333334p-1'),
    ('c2.optimizer', True, '0x1.7333333333335p-1'),
    ('c2.gcurve', True, '0x1.0000000000000p-52'),
    ('c2.monotone', True, '0x1.89153abbc0000p-16'),
    ('c3.d2.single_opt', True, '0x1.b333333333334p-1'),
    ('c3.d2.uniform', True, '0x1.b333333333332p-1'),
    ('c3.d2.ent_ceiling', True, '0x1.b333333333336p-1'),
    ('c3.d3.single_opt', True, '0x1.b333333333336p-1'),
    ('c3.d3.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d3.ent_ceiling', True, '0x1.b333333333336p-1'),
    ('c3.d4.single_opt', True, '0x1.b333333333336p-1'),
    ('c3.d4.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d4.ent_ceiling', True, '0x1.b333333333339p-1'),
    ('c3.d5.single_opt', True, '0x1.b333333333336p-1'),
    ('c3.d5.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d5.ent_ceiling', True, '0x1.b333333333336p-1'),
    ('c4.closed', True, '0x1.4cccccccccccdp-1'),
    ('c4.single_opt', True, '0x1.4cccccccccccdp-1'),
    ('c4.ent_gain', True, '0x1.4cccccccccccep-1'),
    ('c5.r1.single_opt', True, '0x1.7333333333335p-1'),
    ('c5.r1.single_fixed', True, '0x1.7333333333334p-1'),
    ('c5.r1.maxent_fixed', True, '0x1.4cccccccccccdp-1'),
    ('c5.r1.order', True, '0x1.3333333333338p-4'),
    ('c5.r1.single_value', True, '0x1.7333333333334p-1'),
    ('c5.r1.maxent_value', True, '0x1.4cccccccccccdp-1'),
    ('c5.r2.single_opt', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.single_fixed', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.maxent_fixed', True, '0x1.0edcfa9bd8459p-1'),
    ('c5.r2.order', True, '0x1.71f58d506bd00p-9'),
    ('c5.r2.single_value', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.maxent_value', True, '0x1.0edcfa9bd845ap-1'),
    ('c5.grid', True, '0x0.0p+0'),
    ('c6.norm', True, '0x1.173f5ef79370dp-1'),
    ('c6.fixed', True, '0x1.45cfd7bde4dc3p-1'),
    ('c6.margin', True, '0x1.623ed7f2ae280p-8'),
    ('c6.condition', True, '0x1.9eb851eb851eap-1'),
    ('c7.zeta', True, '0x1.0000000000000p+0'),
    ('c7.single_cap', True, '0x1.b8a3e15a19822p-1'),
    ('c7.ent_bound', True, '0x1.f63d49f54fe22p+0'),
    ('c7.ent_bound_strict', True, '0x1.3856c15603bc0p-5'),
    ('c8.single', True, '0x1.0000000000000p+0'),
    ('c8.cap', True, '0x1.d367c70064fecp-1'),
    ('c8.maxent_fixed', True, '0x1.b75cc4e1bd825p-1'),
    ('c9.d2', True, '0x1.0000000000000p-52'),
    ('c9.d3', True, '0x1.0000000000000p-52'),
    ('c10.helstrom', True, '0x1.b504f333f9de6p-1'),
    ('c10.product', True, '0x1.0000000000000p-52'),
    ('c10.cptp_tp', True, '0x1.00337f51953c7p-52'),
    ('c10.cptp_choi', True, '-0x1.5fc92171961dfp-53'),
]


def test_verify_values_at_seed_0_are_pinned_bit_for_bit():
    got = [(r.scenario_id, r.passed, r.computed.hex()) for r in run_acceptance(seed=0)]
    assert got == PINNED_SEED_0


# The same triples at two more seeds, which move every seeded optimizer
# search and random probe while the closed-form values stay put.
PINNED_SEED_1234 = [
    ('c1.d2.constancy', True, '0x1.0000000000000p-52'),
    ('c1.d2.closed', True, '0x1.4cccccccccccdp-1'),
    ('c1.d2.optimizer', True, '0x1.4cccccccccccep-1'),
    ('c1.d3.constancy', True, '0x1.0000000000000p-52'),
    ('c1.d3.closed', True, '0x1.6666666666667p-1'),
    ('c1.d3.optimizer', True, '0x1.6666666666669p-1'),
    ('c1.d4.constancy', True, '0x1.8000000000000p-52'),
    ('c1.d4.closed', True, '0x1.7333333333334p-1'),
    ('c1.d4.optimizer', True, '0x1.7333333333335p-1'),
    ('c2.optimizer', True, '0x1.7333333333335p-1'),
    ('c2.gcurve', True, '0x1.0000000000000p-52'),
    ('c2.monotone', True, '0x1.89153abbc0000p-16'),
    ('c3.d2.single_opt', True, '0x1.b333333333334p-1'),
    ('c3.d2.uniform', True, '0x1.b333333333332p-1'),
    ('c3.d2.ent_ceiling', True, '0x1.b333333333335p-1'),
    ('c3.d3.single_opt', True, '0x1.b333333333336p-1'),
    ('c3.d3.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d3.ent_ceiling', True, '0x1.b333333333338p-1'),
    ('c3.d4.single_opt', True, '0x1.b333333333335p-1'),
    ('c3.d4.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d4.ent_ceiling', True, '0x1.b333333333336p-1'),
    ('c3.d5.single_opt', True, '0x1.b333333333336p-1'),
    ('c3.d5.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d5.ent_ceiling', True, '0x1.b333333333335p-1'),
    ('c4.closed', True, '0x1.4cccccccccccdp-1'),
    ('c4.single_opt', True, '0x1.4cccccccccccdp-1'),
    ('c4.ent_gain', True, '0x1.4cccccccccccep-1'),
    ('c5.r1.single_opt', True, '0x1.7333333333334p-1'),
    ('c5.r1.single_fixed', True, '0x1.7333333333334p-1'),
    ('c5.r1.maxent_fixed', True, '0x1.4cccccccccccdp-1'),
    ('c5.r1.order', True, '0x1.3333333333338p-4'),
    ('c5.r1.single_value', True, '0x1.7333333333334p-1'),
    ('c5.r1.maxent_value', True, '0x1.4cccccccccccdp-1'),
    ('c5.r2.single_opt', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.single_fixed', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.maxent_fixed', True, '0x1.0edcfa9bd8459p-1'),
    ('c5.r2.order', True, '0x1.71f58d506bd00p-9'),
    ('c5.r2.single_value', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.maxent_value', True, '0x1.0edcfa9bd845ap-1'),
    ('c5.grid', True, '0x0.0p+0'),
    ('c6.norm', True, '0x1.173f5ef79370dp-1'),
    ('c6.fixed', True, '0x1.45cfd7bde4dc3p-1'),
    ('c6.margin', True, '0x1.623ed7f2ae280p-8'),
    ('c6.condition', True, '0x1.9eb851eb851eap-1'),
    ('c7.zeta', True, '0x1.0000000000000p+0'),
    ('c7.single_cap', True, '0x1.b8a3e15a19823p-1'),
    ('c7.ent_bound', True, '0x1.f63d49f54fe22p+0'),
    ('c7.ent_bound_strict', True, '0x1.3856c15603bc0p-5'),
    ('c8.single', True, '0x1.0000000000000p+0'),
    ('c8.cap', True, '0x1.d367c70064fecp-1'),
    ('c8.maxent_fixed', True, '0x1.b75cc4e1bd825p-1'),
    ('c9.d2', True, '0x1.0000000000000p-52'),
    ('c9.d3', True, '0x1.0000000000000p-52'),
    ('c10.helstrom', True, '0x1.b504f333f9de6p-1'),
    ('c10.product', True, '0x1.0000000000000p-52'),
    ('c10.cptp_tp', True, '0x1.00337f51953c7p-52'),
    ('c10.cptp_choi', True, '-0x1.5fc92171961dfp-53'),
]
PINNED_SEED_7 = [
    ('c1.d2.constancy', True, '0x1.0000000000000p-52'),
    ('c1.d2.closed', True, '0x1.4cccccccccccep-1'),
    ('c1.d2.optimizer', True, '0x1.4cccccccccccep-1'),
    ('c1.d3.constancy', True, '0x1.8000000000000p-52'),
    ('c1.d3.closed', True, '0x1.6666666666666p-1'),
    ('c1.d3.optimizer', True, '0x1.6666666666669p-1'),
    ('c1.d4.constancy', True, '0x1.8000000000000p-52'),
    ('c1.d4.closed', True, '0x1.7333333333334p-1'),
    ('c1.d4.optimizer', True, '0x1.7333333333335p-1'),
    ('c2.optimizer', True, '0x1.7333333333335p-1'),
    ('c2.gcurve', True, '0x1.0000000000000p-52'),
    ('c2.monotone', True, '0x1.89153abbc0000p-16'),
    ('c3.d2.single_opt', True, '0x1.b333333333334p-1'),
    ('c3.d2.uniform', True, '0x1.b333333333332p-1'),
    ('c3.d2.ent_ceiling', True, '0x1.b333333333335p-1'),
    ('c3.d3.single_opt', True, '0x1.b333333333336p-1'),
    ('c3.d3.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d3.ent_ceiling', True, '0x1.b333333333338p-1'),
    ('c3.d4.single_opt', True, '0x1.b333333333338p-1'),
    ('c3.d4.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d4.ent_ceiling', True, '0x1.b333333333336p-1'),
    ('c3.d5.single_opt', True, '0x1.b333333333335p-1'),
    ('c3.d5.uniform', True, '0x1.b333333333334p-1'),
    ('c3.d5.ent_ceiling', True, '0x1.b333333333336p-1'),
    ('c4.closed', True, '0x1.4cccccccccccdp-1'),
    ('c4.single_opt', True, '0x1.4cccccccccccdp-1'),
    ('c4.ent_gain', True, '0x1.4cccccccccccep-1'),
    ('c5.r1.single_opt', True, '0x1.7333333333334p-1'),
    ('c5.r1.single_fixed', True, '0x1.7333333333334p-1'),
    ('c5.r1.maxent_fixed', True, '0x1.4cccccccccccdp-1'),
    ('c5.r1.order', True, '0x1.3333333333338p-4'),
    ('c5.r1.single_value', True, '0x1.7333333333334p-1'),
    ('c5.r1.maxent_value', True, '0x1.4cccccccccccdp-1'),
    ('c5.r2.single_opt', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.single_fixed', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.maxent_fixed', True, '0x1.0edcfa9bd8459p-1'),
    ('c5.r2.order', True, '0x1.71f58d506bd00p-9'),
    ('c5.r2.single_value', True, '0x1.0d6b050e87d9dp-1'),
    ('c5.r2.maxent_value', True, '0x1.0edcfa9bd845ap-1'),
    ('c5.grid', True, '0x0.0p+0'),
    ('c6.norm', True, '0x1.173f5ef79370dp-1'),
    ('c6.fixed', True, '0x1.45cfd7bde4dc3p-1'),
    ('c6.margin', True, '0x1.623ed7f2ae280p-8'),
    ('c6.condition', True, '0x1.9eb851eb851eap-1'),
    ('c7.zeta', True, '0x1.0000000000000p+0'),
    ('c7.single_cap', True, '0x1.b8a3e15a19822p-1'),
    ('c7.ent_bound', True, '0x1.f63d49f54fe22p+0'),
    ('c7.ent_bound_strict', True, '0x1.3856c15603bc0p-5'),
    ('c8.single', True, '0x1.0000000000000p+0'),
    ('c8.cap', True, '0x1.d367c70064fecp-1'),
    ('c8.maxent_fixed', True, '0x1.b75cc4e1bd825p-1'),
    ('c9.d2', True, '0x1.0000000000000p-52'),
    ('c9.d3', True, '0x1.0000000000000p-52'),
    ('c10.helstrom', True, '0x1.b504f333f9de6p-1'),
    ('c10.product', True, '0x1.0000000000000p-52'),
    ('c10.cptp_tp', True, '0x1.00337f51953c7p-52'),
    ('c10.cptp_choi', True, '-0x1.5fc92171961dfp-53'),
]


@pytest.mark.parametrize("seed", [1234, 7])
def test_verify_values_at_other_seeds_are_pinned_bit_for_bit(seed):
    pinned = {1234: PINNED_SEED_1234, 7: PINNED_SEED_7}[seed]
    got = [(r.scenario_id, r.passed, r.computed.hex()) for r in run_acceptance(seed=seed)]
    assert got == pinned
