import json
import subprocess
import sys

import numpy as np
import pytest

from chandiscrim.channels import channel_to_dict, mixed_unitary_pair_d6
from chandiscrim.cli import main
from chandiscrim.discrimination import FAMILIES, discrim_fixed_entangled, discrim_fixed_single
from chandiscrim.linalg import from_pairs
from chandiscrim.probes import BipartitePureProbe, SinglePureProbe


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "chandiscrim", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def test_eval_depolarizing_maxent():
    proc = run_cli(
        "eval", "depolarizing", "--d", "2", "--q1", "0.9", "--q2", "0.3",
        "--probe", "maxent",
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["probability"] == pytest.approx(0.725, abs=1e-12)
    assert payload["probe_class"] == "max_entangled"
    assert payload["method"] == "closed_form"


def test_eval_erasure_single():
    proc = run_cli(
        "eval", "erasure", "--d", "2", "--eps1", "0.8", "--eps2", "0.3",
        "--probe", "single",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.75, abs=1e-12)


def test_eval_identical_dephasing_via_optimizer():
    proc = run_cli(
        "eval", "dephasing", "--d", "2", "--r1", "0.5", "--r2", "0.5",
        "--probe", "optimize-single", "--restarts", "2", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.5, abs=1e-9)


def test_eval_json_round_trips_full_precision():
    proc = run_cli(
        "eval", "amplitude-damping", "--mu1", "0.04", "--mu2", "0.01",
        "--probe", "single",
    )
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["probability"]
    # shortest round-trip printing: parsing back gives the identical float
    assert value == 0.526207120918048


def test_eval_rejects_bad_parameters(capsys):
    proc = run_cli(
        "eval", "depolarizing", "--d", "2", "--q1", "1.5", "--q2", "0.3",
        "--probe", "single",
    )
    assert proc.returncode == 2
    assert "q must lie strictly in (0, 1)" in proc.stderr

    proc = run_cli("eval", "depolarizing", "--q1", "0.9", "--q2", "0.3", "--probe", "bogus")
    assert proc.returncode == 2
    assert "probe class" in proc.stderr

    proc = run_cli("eval", "depolarizing", "--probe", "single")
    assert proc.returncode == 2
    assert "--q1" in proc.stderr

    base = ("eval", "depolarizing", "--q1", "0.9", "--q2", "0.3", "--probe", "single")
    for flag in ("--restarts", "--step-tolerance", "--max-iterations"):
        proc = run_cli(*base, flag, "0")
        assert proc.returncode == 2
        assert "must be positive" in proc.stderr and "Traceback" not in proc.stderr

    # a non-finite probe angle used to print "probability": NaN with exit 0
    for theta in ("nan", "inf"):
        proc = run_cli(
            "eval", "amplitude-damping", "--mu1", "0.3", "--mu2", "0.1",
            "--probe", f"single:theta={theta}",
        )
        assert proc.returncode == 2, proc.stdout
        assert "normalized" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    # --d 0 used to fall back to d = 2
    proc = run_cli(*base, "--d", "0")
    assert proc.returncode == 2
    assert "d must be at least 2" in proc.stderr

    # a family flag the family does not read used to be dropped silently
    stray = [
        (("amplitude-damping", "--d", "7", "--mu1", "0.04", "--mu2", "0.01"),
         "takes no --d; its flags: --mu1, --mu2"),
        (("depolarizing", "--q1", "0.9", "--q2", "0.3", "--phases", "0,1"),
         "takes no --phases; its flags: --d, --q1, --q2"),
        (("dephasing", "--r1", "0.9", "--r2", "0.3", "--unitary-json", "u.json"),
         "takes no --unitary-json"),
        (("erasure", "--eps1", "0.9", "--eps2", "0.3", "--weights", "0.2,0.3,0.5"),
         "takes no --weights"),
        (("gen-dephasing", "--r1", "0.9", "--r2", "0.3", "--phases", "0,1", "--weights", "1,1,1"),
         "its flags: --r1, --r2, --phases, --unitary-json"),
        (("mixed-unitary-d3", "--d", "3"), "takes no --d; its flags: --weights"),
        # an empty --weights used to fall back to the default weights
        (("mixed-unitary-d3", "--weights", ""), "--weights expects three"),
    ]
    for family_args, message in stray:
        assert main(["eval", *family_args, "--probe", "single:|0>"]) == 2, family_args
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_eval_mixed_unitary_probes():
    proc = run_cli(
        "eval", "mixed-unitary-d3", "--probe", "zeta:c1=0.5,0,c2=0.5,0",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(1.0, abs=1e-12)

    proc = run_cli("eval", "mixed-unitary-d6", "--probe", "single:|0>")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(1.0, abs=1e-12)

    # no closed form exists for the mixed-unitary families
    proc = run_cli("eval", "mixed-unitary-d3", "--probe", "single")
    assert proc.returncode == 2


def test_eval_gen_dephasing_phases():
    proc = run_cli(
        "eval", "gen-dephasing", "--phases", f"0,{np.pi/3}", "--r1", "0.8",
        "--r2", "0.2", "--probe", "single",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.65, abs=1e-9)


def test_sweep_csv_deterministic(tmp_path):
    args = (
        "sweep", "amplitude-damping",
        "--param", "mu1=0.05:0.95:0.1",
        "--param", "mu2=0.05:0.95:0.1",
        "--probes", "single-closed,maxent-closed",
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1)).returncode == 0
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "family,param1,param2,probe_class,probability,probe_params"
    assert len(lines) == 1 + 10 * 10 * 2


def test_sweep_zero_width_range(tmp_path):
    out = tmp_path / "one.csv"
    proc = run_cli(
        "sweep", "depolarizing",
        "--param", "q1=0.9", "--param", "q2=0.3",
        "--probes", "single-closed",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("depolarizing,0.9,,single-closed,0.65,")


def test_sweep_unwritable_path():
    proc = run_cli(
        "sweep", "depolarizing",
        "--param", "q1=0.9", "--param", "q2=0.3",
        "--probes", "single-closed",
        "--out", "/nonexistent-dir/sweep.csv",
    )
    assert proc.returncode == 3


def test_sweep_monotone_g_curve(tmp_path):
    out = tmp_path / "g.csv"
    proc = run_cli(
        "sweep", "depolarizing",
        "--param", "g=0:1:0.02", "--param", "q1=0.9", "--param", "q2=0.3",
        "--probes", "nonmax-closed",
        "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 51
    probs = [float(r.split(",")[4]) for r in rows]
    peak = int(np.argmax(probs))
    assert peak == 25  # g = 0.5
    assert all(b > a for a, b in zip(probs[:26], probs[1:26]))
    assert all(b < a for a, b in zip(probs[25:], probs[26:]))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["depolarizing", "--param", "foo=1", "--probes", "single-closed"], "no parameter 'foo'"),
        (
            ["mixed-unitary-d3", "--param", "weights=0.3", "--probes", "optimize-single"],
            "no parameter 'weights'",
        ),
        (
            ["erasure", "--param", "eps1=-2", "--param", "eps2=0.3", "--probes", "single-closed"],
            "eps must lie strictly in (0, 1)",
        ),
        (
            ["depolarizing", "--param", "q1=1.5", "--param", "q2=0.3", "--probes", "single-closed"],
            "q must lie strictly in (0, 1)",
        ),
        (
            ["depolarizing", "--param", "q1=nan", "--param", "q2=0.3", "--probes", "single-closed"],
            "q must lie strictly in (0, 1)",
        ),
        (
            ["depolarizing", "--param", "d=2.5", "--param", "q1=0.9", "--param", "q2=0.3",
             "--probes", "single-closed"],
            "d must be an integer",
        ),
        # ranges that never end used to loop forever
        (
            ["amplitude-damping", "--param", "mu1=0.1:inf:0.1", "--param", "mu2=0.3",
             "--probes", "single-closed"],
            "must be finite",
        ),
        (
            ["amplitude-damping", "--param", "mu1=0.1:0.2:1e-20", "--param", "mu2=0.3",
             "--probes", "single-closed"],
            "does not advance",
        ),
        (
            ["amplitude-damping", "--param", "mu1=nan:0.2:0.1", "--param", "mu2=0.3",
             "--probes", "single-closed"],
            "must be finite",
        ),
    ],
)
def test_sweep_rejects_points_eval_rejects(argv, message, capsys):
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def _one_point_args(family: str, kind: str) -> dict:
    """Valid parameters for one family, plus the probe parameter of its nonmax form."""
    values = {
        "depolarizing": {"q1": "0.9", "q2": "0.3"},
        "dephasing": {"d": "3", "r1": "0.85", "r2": "0.2"},
        "gen-dephasing": {"r1": "0.9", "r2": "0.2"},
        "amplitude-damping": {"mu1": "0.04", "mu2": "0.01"},
        "erasure": {"d": "3", "eps1": "0.8", "eps2": "0.3"},
    }[family]
    if kind == "nonmax":
        values[FAMILIES[family].probe_param] = "0.3"
    return values


def _closed_classes():
    return [(f, kind) for f, fam in FAMILIES.items() for kind in fam.closed]


@pytest.mark.parametrize("family, kind", _closed_classes())
def test_eval_and_one_point_sweep_agree(family, kind, capsys):
    values = _one_point_args(family, kind)
    extra = ["--phases", "0,1,2.5"] if family == "gen-dephasing" else []
    probe_param = FAMILIES[family].probe_param
    flags = [a for n, v in values.items() if n != probe_param for a in (f"--{n}", v)]
    probe = kind  # "single" and "maxent" name eval probe classes as well
    if kind == "nonmax":
        probe = f"nonmax:g={values['g']}" if probe_param == "g" else f"schmidt:p={values['p']}"
    assert main(["eval", family, *flags, *extra, "--probe", probe]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "closed_form"

    params = [a for n, v in values.items() for a in ("--param", f"{n}={v}")]
    assert main(["sweep", family, *params, *extra, "--probes", f"{kind}-closed"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 2
    assert rows[1].split(",")[4] == repr(payload["probability"])

    # the closed form is attained by the probe it reports
    fam = FAMILIES[family]
    v = {n: d for n, d in fam.params.items() if d is not None}
    v.update({n: float(x) for n, x in values.items()})
    v["u"] = np.diag(np.exp(1j * np.array([0.0, 1.0, 2.5])))
    ch1, ch2, _ = fam.make(v)
    dims, amplitudes = payload["probe"]["dims"], from_pairs(payload["probe"]["amplitudes"])
    if len(dims) == 1:
        fixed = discrim_fixed_single(ch1, ch2, SinglePureProbe(amplitudes))
    else:
        fixed = discrim_fixed_entangled(ch1, ch2, BipartitePureProbe(*dims, amplitudes))
    assert payload["probability"] == pytest.approx(fixed.probability, abs=1e-8)


def test_custom_identical_channels(tmp_path):
    ch_dict = channel_to_dict(mixed_unitary_pair_d6()[0])
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"channel1": ch_dict, "channel2": ch_dict}))
    proc = run_cli("custom", str(path), "--probe", "single:|0>")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.5, abs=1e-12)


def test_custom_dimension6_pair(tmp_path):
    ch1, ch2 = mixed_unitary_pair_d6()
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps({"channel1": channel_to_dict(ch1), "channel2": channel_to_dict(ch2)})
    )
    proc = run_cli("custom", str(path), "--probe", "single:|0>")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(1.0, abs=1e-12)


def test_custom_schema_and_cptp_errors(tmp_path):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"channel1": {"dim_in": 2}}))
    proc = run_cli("custom", str(bad_schema), "--probe", "single:|0>")
    assert proc.returncode == 2

    ch_dict = channel_to_dict(mixed_unitary_pair_d6()[0])
    broken = json.loads(json.dumps(ch_dict))
    broken["kraus"][0][0][0] = [2.0, 0.0]  # breaks trace preservation
    bad_cptp = tmp_path / "noncptp.json"
    bad_cptp.write_text(json.dumps({"channel1": broken, "channel2": ch_dict}))
    proc = run_cli("custom", str(bad_cptp), "--probe", "single:|0>")
    assert proc.returncode == 4
    assert "residual" in proc.stderr

    proc = run_cli("custom", str(tmp_path / "missing.json"), "--probe", "single:|0>")
    assert proc.returncode == 3
    assert "cannot read" in proc.stderr


def test_undecodable_input_files_exit_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"channel1": "\xe9"}')
    not_json = tmp_path / "broken.json"
    not_json.write_text("{")
    gen = ["eval", "gen-dephasing", "--r1", "0.9", "--r2", "0.2", "--probe", "single"]
    # custom used to die with a UnicodeDecodeError traceback on the first file
    for path in (latin1, not_json):
        custom = ["custom", str(path), "--probe", "single:|0>"]
        for argv in (custom, [*gen, "--unitary-json", str(path)]):
            assert main(argv) == 2, argv
            captured = capsys.readouterr()
            assert f"cannot read {str(path)!r}" in captured.err and captured.out == ""

    # a JSON object where the [re, im] pairs belong used to raise a TypeError traceback
    not_pairs = tmp_path / "object.json"
    not_pairs.write_text('{"u": 1}')
    assert main([*gen, "--unitary-json", str(not_pairs)]) == 2
    assert "unitary file:" in capsys.readouterr().err


def test_verify_subset_passes(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("verify", "--only", "6,8,9,10", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "PASS" in proc.stdout
    reports = json.loads(out.read_text())
    assert reports and all(r["passed"] for r in reports)
    ids = {r["scenario_id"].split(".")[0] for r in reports}
    assert ids == {"c6", "c8", "c9", "c10"}


@pytest.mark.parametrize("only", ["11", "0,99", ",", "", "1,11"])
def test_verify_rejects_unknown_criteria(only, capsys):
    # these used to print "0/0 checks passed" (or run only the known ones) and exit 0
    assert main(["verify", "--only", only]) == 2
    captured = capsys.readouterr()
    assert "1..10" in captured.err and captured.out == ""


def test_verify_zero_tolerance_fails_optimizer_checks():
    proc = run_cli("verify", "--only", "1", "--tolerance-scale", "0", "--json")
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    failed = {r["scenario_id"] for r in reports if not r["passed"]}
    assert failed and all("optimizer" in sid for sid in failed)


def test_verify_seed_variation_keeps_pass_set(tmp_path):
    outcomes = []
    for seed in ("0", "1234"):
        proc = run_cli("verify", "--only", "6,9,10", "--seed", seed, "--json")
        reports = json.loads(proc.stdout)
        outcomes.append({r["scenario_id"]: r["passed"] for r in reports})
        assert proc.returncode == 0
    assert outcomes[0] == outcomes[1]
