"""The three benchmark workloads: inputs from a seed, one call per unit, output checks.

Each workload exposes ``units`` (the fixed work of one pass), ``call(unit)``
(the only code that reaches the program, timed by the caller),
``check(unit, output)`` (run after the pass, outside the timed region) and
``MEASURED_PASSES``: the latency figures always come from exactly that many
untraced passes, however many fit in the run, so their order statistics do
not move with the program's speed.
References used by the checks are computed here with plain numpy from the
physics of each family, not from the package.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

REF_ATOL = 1e-10  # exact references: closed forms and independent numpy evaluations
OPT_ATOL = 1e-6  # optimizer against a closed-form optimum


@dataclass
class Outcome:
    """Result of checking one unit's output."""

    attempted: int = 1
    failures: list[str] = field(default_factory=list)
    errors: list[float] = field(default_factory=list)  # |computed - reference|
    digest: str = ""
    passed_ids: list[str] = field(default_factory=list)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _num(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def two_outcome_ref(p1: float, x1: float, x2: float) -> float:
    """States x_i A + (1-x_i) B with A, B orthogonal rank-one: 1/2 (1 + |.| + |.|)."""
    p2 = 1.0 - p1
    return 0.5 * (1.0 + abs(p1 * x1 - p2 * x2) + abs(p1 * (1.0 - x1) - p2 * (1.0 - x2)))


def depolarized_ref(p1: float, q1: float, q2: float, dim: int) -> float:
    """Pure state through rho -> q rho + (1-q) I/dim; eigenvalues a + b/dim and b/dim."""
    p2 = 1.0 - p1
    a = p1 * q1 - p2 * q2
    b = p1 * (1.0 - q1) - p2 * (1.0 - q2)
    return 0.5 * (1.0 + abs(a + b / dim) + (dim - 1) * abs(b / dim))


def numeric_ref(kraus1, kraus2, psi, p1: float, dim_b: int = 1) -> float:
    """Helstrom value of a pure probe with the channels acting on its first factor."""
    rho = np.outer(psi, np.conj(psi))
    eye_b = np.eye(dim_b)

    def evolve(kraus):
        return sum(np.kron(k, eye_b) @ rho @ np.kron(k, eye_b).conj().T for k in kraus)

    diff = p1 * evolve(kraus1) - (1.0 - p1) * evolve(kraus2)
    return 0.5 * (1.0 + float(np.abs(np.linalg.eigvalsh(diff)).sum()))


def ad_kraus(mu: float):
    return [np.array([[1.0, 0.0], [0.0, np.sqrt(mu)]]), np.array([[0.0, np.sqrt(1.0 - mu)], [0.0, 0.0]])]


def phi_plus(d: int) -> np.ndarray:
    return np.eye(d).reshape(-1) / np.sqrt(d)


def basis(d: int, k: int) -> np.ndarray:
    v = np.zeros(d)
    v[k] = 1.0
    return v


def stinespring_kraus(rng, d: int, branches: int) -> list[np.ndarray]:
    """Kraus blocks of a random isometry C^d -> C^(d*branches)."""
    g = rng.standard_normal((d * branches, d)) + 1j * rng.standard_normal((d * branches, d))
    v, _ = np.linalg.qr(g)
    return [v[i * d:(i + 1) * d, :] for i in range(branches)]


def kraus_json(kraus) -> dict:
    d_out, d_in = kraus[0].shape
    return {
        "dim_in": d_in,
        "dim_out": d_out,
        "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in k] for k in kraus],
    }


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------


def call_cli(cli, argv: list[str]):
    """``cli.main(argv)`` with stdout/stderr captured: (code, stdout, stderr, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    tb = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failed unit, never a crash of the benchmark
            code, tb = None, traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), tb


def _cli_failures(unit, code, stderr, tb) -> list[str]:
    if tb is not None:
        return [f"traceback: {tb.strip().splitlines()[-1]}"]
    if code != unit["exit"]:
        return [f"exit code {code!r}, expected {unit['exit']} ({stderr.strip()[:120]})"]
    return []


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """The full battery: one unit is ``run_criterion(n, seed=S)``."""

    name = "verify"
    MEASURED_PASSES = 4  # 40 latencies: the tail is the 30th

    def __init__(self, api, seed: int, workdir: Path):
        self.verify = api["verify"]
        self.seed = seed
        self.units = list(range(1, 11))

    def label(self, unit) -> str:
        return f"c{unit}"

    def call(self, unit):
        try:
            return self.verify.run_criterion(unit, seed=self.seed), None
        except Exception:
            return None, traceback.format_exc()

    def check(self, unit, output) -> Outcome:
        reports, tb = output
        if tb is not None:
            return Outcome(failures=[f"c{unit}: {tb.strip().splitlines()[-1]}"])
        return Outcome(
            attempted=len(reports),
            failures=[r.scenario_id for r in reports if not r.passed],
            errors=[abs(r.computed - r.expected) for r in reports if r.kind == "abs"],
            digest=_digest([(r.scenario_id, r.computed, r.passed) for r in reports]),
            passed_ids=[r.scenario_id for r in reports if r.passed],
        )


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


class EvalWorkload:
    """A seeded stream of one-off ``eval``/``custom`` requests; no optimizer requests."""

    name = "eval"
    MEASURED_PASSES = 30
    REPEATS = 2  # the request template is drawn this many times per pass

    def __init__(self, api, seed: int, workdir: Path):
        self.cli = api["cli"]
        rng = np.random.default_rng(seed)
        units: list[dict] = []
        for rep in range(self.REPEATS):
            units.extend(self._requests(rng, workdir, rep))
        order = rng.permutation(len(units))
        self.units = [units[i] for i in order]

    def label(self, unit) -> str:
        return unit["kind"]

    @staticmethod
    def _requests(rng, workdir: Path, rep: int) -> list[dict]:
        def prob(lo=0.05, hi=0.95) -> float:
            return round(float(rng.uniform(lo, hi)), 4)

        def prior() -> float:
            p = prob(0.2, 0.8)
            return p if p != 0.5 else 0.55

        reqs: list[dict] = []

        def add(kind, argv, ref=None, p1=0.5, exit=0):
            if p1 != 0.5:
                argv = argv + ["--p1", _num(p1)]
            reqs.append({"kind": kind, "argv": argv, "ref": ref, "p1": p1, "exit": exit})

        for d in range(2, 7):
            q1, q2 = prob(), prob()
            fam = ["eval", "depolarizing", "--d", str(d), "--q1", _num(q1), "--q2", _num(q2)]
            k, p1 = int(rng.integers(d)), prior()
            add("depolarizing.single", fam + ["--probe", "single"], depolarized_ref(0.5, q1, q2, d))
            add("depolarizing.maxent", fam + ["--probe", "maxent"], depolarized_ref(0.5, q1, q2, d * d))
            add("depolarizing.basis", fam + ["--probe", f"single:|{k}>"], depolarized_ref(p1, q1, q2, d), p1)
            add("depolarizing.maxent_p1", fam + ["--probe", "maxent"], depolarized_ref(p1, q1, q2, d * d), p1)
            add("depolarizing.product", fam + ["--probe", f"product:|{k}>"], depolarized_ref(p1, q1, q2, d), p1)

            r1, r2 = prob(), prob()
            fam = ["eval", "dephasing", "--d", str(d), "--r1", _num(r1), "--r2", _num(r2)]
            k, p1 = int(rng.integers(d)), prior()
            add("dephasing.single", fam + ["--probe", "single"], two_outcome_ref(0.5, r1, r2))
            add("dephasing.uniform", fam + ["--probe", "single:uniform"], two_outcome_ref(p1, r1, r2), p1)
            add("dephasing.maxent", fam + ["--probe", "maxent"], two_outcome_ref(p1, r1, r2), p1)
            add("dephasing.basis", fam + ["--probe", f"single:|{k}>"], two_outcome_ref(p1, 1.0, 1.0), p1)

            e1, e2 = prob(), prob()
            fam = ["eval", "erasure", "--d", str(d), "--eps1", _num(e1), "--eps2", _num(e2)]
            k, p1 = int(rng.integers(d)), prior()
            add("erasure.single", fam + ["--probe", "single"], two_outcome_ref(0.5, e1, e2))
            add("erasure.maxent", fam + ["--probe", "maxent"], two_outcome_ref(0.5, e1, e2))
            add("erasure.basis", fam + ["--probe", f"single:|{k}>"], two_outcome_ref(p1, e1, e2), p1)
            add("erasure.uniform", fam + ["--probe", "single:uniform"], two_outcome_ref(p1, e1, e2), p1)
            add("erasure.product", fam + ["--probe", f"product:|{k}>"], two_outcome_ref(p1, e1, e2), p1)

        q1, q2, g = prob(), prob(), prob(0.05, 0.45)
        add(
            "depolarizing.nonmax",
            ["eval", "depolarizing", "--q1", _num(q1), "--q2", _num(q2), "--probe", f"nonmax:g={g}"],
        )

        mu1, mu2 = prob(), prob()
        k1, k2 = ad_kraus(mu1), ad_kraus(mu2)
        fam = ["eval", "amplitude-damping", "--mu1", _num(mu1), "--mu2", _num(mu2)]
        p1, p, g, z = prior(), prob(0.05, 0.95), prob(0.05, 0.95), prob(0.0, 3.0)
        theta, delta = prob(0.0, 3.1), prob(0.0, 6.2)
        add("ad.single", fam + ["--probe", "single"])
        add("ad.maxent", fam + ["--probe", "maxent"], numeric_ref(k1, k2, phi_plus(2), 0.5, 2))
        add("ad.maxent_p1", fam + ["--probe", "maxent"], numeric_ref(k1, k2, phi_plus(2), p1, 2), p1)
        schmidt = np.array([np.sqrt(p), 0.0, 0.0, np.sqrt(1.0 - p)])
        add("ad.schmidt", fam + ["--probe", f"schmidt:p={p}"], numeric_ref(k1, k2, schmidt, 0.5, 2))
        nonmax = np.array([np.sqrt(g), 0.0, 0.0, np.exp(1j * z) * np.sqrt(1.0 - g)])
        add("ad.nonmax", fam + ["--probe", f"nonmax:g={g},z={z}"], numeric_ref(k1, k2, nonmax, p1, 2), p1)
        add("ad.theta", fam + ["--probe", f"single:theta={theta},delta={delta}"], None, p1)
        add("ad.basis", fam + ["--probe", "single:|1>"], two_outcome_ref(p1, mu1, mu2), p1)
        add("ad.product", fam + ["--probe", "product:|1>"], two_outcome_ref(p1, mu1, mu2), p1)

        phases = sorted(round(float(x), 4) for x in rng.uniform(0.0, 6.28, int(rng.integers(2, 4))))
        r1, r2, p1 = prob(), prob(), prior()
        u = np.diag(np.exp(1j * np.array(phases)))
        gk = lambda r: [np.sqrt(r) * np.eye(len(phases)), np.sqrt(1.0 - r) * u]  # noqa: E731
        fam = ["eval", "gen-dephasing", "--phases", ",".join(map(str, phases)), "--r1", _num(r1), "--r2", _num(r2)]
        add("gen-dephasing.single", fam + ["--probe", "single"])
        d = len(phases)
        add(
            "gen-dephasing.maxent",
            fam + ["--probe", "maxent"],
            numeric_ref(gk(r1), gk(r2), phi_plus(d), p1, d),
            p1,
        )
        add(
            "gen-dephasing.uniform",
            fam + ["--probe", "single:uniform"],
            numeric_ref(gk(r1), gk(r2), np.full(d, 1.0 / np.sqrt(d)), p1),
            p1,
        )

        w = rng.dirichlet([4.0, 4.0, 4.0])
        weights = ",".join(_num(x) for x in (w[0], w[1], 1.0 - w[0] - w[1]))
        angle, phase1, phase2 = prob(0.1, 1.4), prob(0.0, 6.2), prob(0.0, 6.2)
        c1 = np.sqrt(0.5) * np.cos(angle) * np.exp(1j * phase1)
        c2 = np.sqrt(0.5) * np.sin(angle) * np.exp(1j * phase2)
        zeta = f"zeta:c1={_num(c1.real)},{_num(c1.imag)},c2={_num(c2.real)},{_num(c2.imag)}"
        fam = ["eval", "mixed-unitary-d3", "--weights", weights]
        add("mu-d3.zeta", fam + ["--probe", zeta], None, prior())
        add("mu-d3.maxent", fam + ["--probe", "maxent"])
        add("mu-d3.basis", fam + ["--probe", f"single:|{int(rng.integers(3))}>"], None, prior())
        add("mu-d6.zero", ["eval", "mixed-unitary-d6", "--probe", "single:|0>"], 1.0, prior())
        add("mu-d6.maxent", ["eval", "mixed-unitary-d6", "--probe", "maxent"])

        for d in (2, 3, 4):
            branches = int(rng.integers(2, 4))
            ka, kb = stinespring_kraus(rng, d, branches), stinespring_kraus(rng, d, branches)
            path = workdir / f"custom-{rep}-d{d}.json"
            path.write_text(json.dumps({"channel1": kraus_json(ka), "channel2": kraus_json(kb)}))
            k, p1 = int(rng.integers(d)), prior()
            base = ["custom", str(path)]
            add("custom.basis", base + ["--probe", f"single:|{k}>"], numeric_ref(ka, kb, basis(d, k), p1), p1)
            uniform = np.full(d, 1.0 / np.sqrt(d))
            add("custom.uniform", base + ["--probe", "single:uniform"], numeric_ref(ka, kb, uniform, p1), p1)
            add("custom.product", base + ["--probe", f"product:|{k}>"], numeric_ref(ka, kb, basis(d, k), p1), p1)
            add("custom.maxent", base + ["--probe", "maxent"], numeric_ref(ka, kb, phi_plus(d), p1, d), p1)

        bad = stinespring_kraus(rng, 2, 2)
        noncptp = workdir / f"noncptp-{rep}.json"
        scaled = [1.05 * k for k in bad]
        noncptp.write_text(json.dumps({"channel1": kraus_json(scaled), "channel2": kraus_json(bad)}))
        malformed = workdir / f"malformed-{rep}.json"
        malformed.write_text(json.dumps({"channel1": kraus_json(bad), "channel2": {"dim_in": 2}}))
        q1, q2, r2, e1, e2 = prob(), prob(), prob(), prob(), prob()
        dep = ["eval", "depolarizing", "--q1", _num(q1), "--q2", _num(q2)]
        add("error.unknown_probe", dep + ["--probe", "bogus"], exit=2)
        add("error.nonmax_qutrit", dep + ["--d", "3", "--probe", "nonmax:g=0.3"], exit=2)
        add("error.missing_flag", ["eval", "depolarizing", "--q1", _num(q1), "--probe", "single"], exit=2)
        add("error.bad_param", ["eval", "dephasing", "--r1", "1.5", "--r2", _num(r2), "--probe", "single"], exit=2)
        add("error.zeta_spec", ["eval", "mixed-unitary-d3", "--probe", "zeta:c1=x,0,c2=0,0"], exit=2)
        add(
            "error.closed_prior",
            ["eval", "erasure", "--eps1", _num(e1), "--eps2", _num(e2), "--probe", "single"],
            p1=prior(),
            exit=2,
        )
        add("error.basis_range", ["eval", "amplitude-damping", "--mu1", "0.3", "--mu2", "0.1", "--probe", "single:|7>"], exit=2)
        add("error.family", ["eval", "not-a-family", "--probe", "single"], exit=2)
        add("error.noncptp", ["custom", str(noncptp), "--probe", "single:|0>"], exit=4)
        add("error.schema", ["custom", str(malformed), "--probe", "single:|0>"], exit=2)
        return reqs

    def call(self, unit):
        return call_cli(self.cli, unit["argv"])

    def check(self, unit, output) -> Outcome:
        code, stdout, stderr, tb = output
        outcome = Outcome(digest=_digest(code, stdout))
        outcome.failures = _cli_failures(unit, code, stderr, tb)
        if outcome.failures or unit["exit"] != 0:
            return outcome
        try:
            value = float(json.loads(stdout)["probability"])
        except (ValueError, KeyError, TypeError) as exc:
            outcome.failures.append(f"unreadable JSON output: {exc}")
            return outcome
        floor = max(unit["p1"], 1.0 - unit["p1"])
        if not floor - 1e-12 <= value <= 1.0 + 1e-12:
            outcome.failures.append(f"probability {value!r} outside [{floor}, 1]")
        if unit["ref"] is not None:
            err = abs(value - unit["ref"])
            outcome.errors.append(err)
            if err > REF_ATOL:
                outcome.failures.append(f"probability {value!r} vs reference {unit['ref']!r}")
        return outcome


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class SweepWorkload:
    """A seeded sequence of 2x2 amplitude-damping ``sweep`` commands writing CSV."""

    name = "sweep"
    MEASURED_PASSES = 8  # 64 latencies: the tail is the 54th
    COMMANDS = 8  # one per cell of a 4x2 split of the (mu1, mu2) square: similar work per seed
    RESTARTS = 2
    PROBES = "single-closed,maxent-closed,optimize-single"

    def __init__(self, api, seed: int, workdir: Path):
        self.cli = api["cli"]
        rng = np.random.default_rng(seed)
        self.units = []
        for i in range(self.COMMANDS):
            a = round(0.02 + 0.21 * (i % 4) + float(rng.uniform(0.0, 0.21)), 4)
            b = round(0.02 + 0.42 * (i // 4) + float(rng.uniform(0.0, 0.42)), 4)
            path = workdir / f"sweep-{i}.csv"
            argv = [
                "sweep", "amplitude-damping",
                "--param", f"mu1={a}:{round(a + 0.1, 4)}:0.1",
                "--param", f"mu2={b}:{round(b + 0.1, 4)}:0.1",
                "--probes", self.PROBES,
                "--restarts", str(self.RESTARTS),
                "--seed", str(int(rng.integers(2**31 - 1))),
                "--out", str(path),
            ]
            self.units.append({"argv": argv, "path": path, "exit": 0})

    def label(self, unit) -> str:
        return "sweep"

    def call(self, unit):
        result = call_cli(self.cli, unit["argv"])
        try:
            data = unit["path"].read_bytes()
        except OSError:
            data = None
        return result, data

    def check(self, unit, output) -> Outcome:
        (code, _stdout, stderr, tb), data = output
        outcome = Outcome(digest=_digest(data))
        outcome.failures = _cli_failures(unit, code, stderr, tb)
        if outcome.failures:
            return outcome
        if data is None:
            outcome.failures.append("no CSV written")
            return outcome
        points: dict[tuple[str, str], dict[str, float]] = {}
        for row in csv.DictReader(io.StringIO(data.decode())):
            points.setdefault((row["param1"], row["param2"]), {})[row["probe_class"]] = float(
                row["probability"]
            )
        if len(points) != 4 or any(len(v) != 3 for v in points.values()):
            outcome.failures.append(f"expected 4 points x 3 probe classes, got {len(points)} points")
            return outcome
        for (mu1, mu2), values in points.items():
            err = abs(values["optimize-single"] - values["single-closed"])
            outcome.errors.append(err)
            if err > OPT_ATOL:
                outcome.failures.append(f"({mu1},{mu2}): optimizer {err:.3g} from single-closed")
            ref = numeric_ref(ad_kraus(float(mu1)), ad_kraus(float(mu2)), phi_plus(2), 0.5, 2)
            err = abs(values["maxent-closed"] - ref)
            outcome.errors.append(err)
            if err > REF_ATOL:
                outcome.failures.append(f"({mu1},{mu2}): maxent-closed {err:.3g} from reference")
        return outcome


WORKLOADS = {w.name: w for w in (VerifyWorkload, EvalWorkload, SweepWorkload)}
