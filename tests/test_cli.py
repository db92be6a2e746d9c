import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from chandiscrim import cli
from chandiscrim.channels import make_amplitude_damping, mixed_unitary_pair_d6
from chandiscrim.cli import main
from chandiscrim.discrimination import FAMILIES, discrim_fixed_entangled, discrim_fixed_single
from chandiscrim.linalg import from_pairs, to_pairs
from chandiscrim.probes import PureProbe
from helpers import channel_to_dict


def run_cli(*args):
    """The CLI in a fresh interpreter, through its module entrypoint.

    Kept for the entrypoint itself, for checking that stderr holds no
    traceback, and as the reference that repeated in-process calls match.
    """
    return subprocess.run(
        [sys.executable, "-m", "chandiscrim", *args], capture_output=True, text=True
    )


def run_main(*args):
    """``main`` in this process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


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
    proc = run_main(
        "eval", "erasure", "--d", "2", "--eps1", "0.8", "--eps2", "0.3",
        "--probe", "single",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.75, abs=1e-12)


def test_eval_identical_dephasing_via_optimizer():
    proc = run_main(
        "eval", "dephasing", "--d", "2", "--r1", "0.5", "--r2", "0.5",
        "--probe", "optimize-single", "--restarts", "2", "--seed", "1",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.5, abs=1e-9)


def test_eval_json_round_trips_full_precision():
    proc = run_main(
        "eval", "amplitude-damping", "--mu1", "0.04", "--mu2", "0.01",
        "--probe", "single",
    )
    assert proc.returncode == 0, proc.stderr
    value = json.loads(proc.stdout)["probability"]
    # shortest round-trip printing: parsing back gives the identical float
    assert value == 0.526207120918048


def test_eval_rejects_bad_parameters(capsys):
    proc = run_main(
        "eval", "depolarizing", "--d", "2", "--q1", "1.5", "--q2", "0.3",
        "--probe", "single",
    )
    assert proc.returncode == 2
    assert "q must lie strictly in (0, 1)" in proc.stderr

    proc = run_main("eval", "depolarizing", "--q1", "0.9", "--q2", "0.3", "--probe", "bogus")
    assert proc.returncode == 2
    assert "probe class" in proc.stderr

    proc = run_main("eval", "depolarizing", "--probe", "single")
    assert proc.returncode == 2
    assert "--q1" in proc.stderr

    base = ("eval", "depolarizing", "--q1", "0.9", "--q2", "0.3", "--probe", "single")
    for flag in ("--restarts", "--step-tolerance", "--max-iterations"):
        proc = run_main(*base, flag, "0")
        assert proc.returncode == 2
        assert "must be positive" in proc.stderr and "Traceback" not in proc.stderr
    # the same through the entrypoint, where an uncaught error prints a traceback
    proc = run_cli(*base, "--restarts", "0")
    assert proc.returncode == 2
    assert "must be positive" in proc.stderr and "Traceback" not in proc.stderr

    # a non-finite probe angle used to print "probability": NaN with exit 0, and
    # non-finite numbers in probe specs or --phases then leaked a RuntimeWarning
    # (an error in this process) before "error:"
    ad = ("amplitude-damping", "--mu1", "0.3", "--mu2", "0.1")
    non_finite = [
        ((*ad, "--probe", "single:theta=nan"), "theta must be a finite number, got 'nan'"),
        ((*ad, "--probe", "single:theta=inf"), "theta must be a finite number, got 'inf'"),
        ((*ad, "--probe", "single:theta=1,delta=nan"), "delta must be a finite number, got 'nan'"),
        ((*ad, "--probe", "nonmax:g=.3,z=inf"), "z must be a finite number, got 'inf'"),
        (("mixed-unitary-d3", "--probe", "zeta:c1=nan,0,c2=0,0"),
         "zeta probe component must be a finite number, got nan"),
        (("gen-dephasing", "--r1", "0.9", "--r2", "0.3", "--phases", "0,inf",
          "--probe", "single:uniform"),
         "--phases angle must be a finite number, got 'inf'"),
    ]
    for family_args, message in non_finite:
        proc = run_main("eval", *family_args)
        assert proc.returncode == 2, family_args
        assert proc.stderr == f"error: {message}\n" and proc.stdout == ""

    # --d 0 used to fall back to d = 2
    proc = run_main(*base, "--d", "0")
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


def test_eval_optimizers_take_a_prior(tmp_path):
    # the optimizers used to refuse p1 != 0.5; a depolarizing pair gives
    # (1/2)(1 + |a + b/n| + (n - 1)|b/n|) with n = d for single probes and
    # n = d^2 for entangled ones
    p1, q1, q2 = 0.3, 0.9, 0.3
    a, b = p1 * q1 - (1 - p1) * q2, p1 * (1 - q1) - (1 - p1) * (1 - q2)
    fam = ("eval", "depolarizing", "--q1", str(q1), "--q2", str(q2), "--p1", str(p1))
    for probe, n in [("optimize-single", 2), ("optimize-ent", 4)]:
        proc = run_main(*fam, "--probe", probe, "--restarts", "4")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["p1"] == p1 and payload["method"] == "optimizer"
        assert payload["probability"] == pytest.approx(
            0.5 * (1 + abs(a + b / n) + (n - 1) * abs(b / n)), abs=1e-9
        )
    ch1, ch2 = mixed_unitary_pair_d6()
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"channel1": channel_to_dict(ch1), "channel2": channel_to_dict(ch2)}))
    proc = run_main("custom", str(path), "--probe", "optimize-single", "--p1", "0.8", "--restarts", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(1.0, abs=1e-12)
    # the prior is still checked
    proc = run_main(*fam[:-1], "1.5", "--probe", "optimize-single")
    assert proc.returncode == 2 and "p1 must lie in [0, 1]" in proc.stderr


def test_eval_mixed_unitary_probes():
    proc = run_main(
        "eval", "mixed-unitary-d3", "--probe", "zeta:c1=0.5,0,c2=0.5,0",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(1.0, abs=1e-12)

    proc = run_main("eval", "mixed-unitary-d6", "--probe", "single:|0>")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(1.0, abs=1e-12)

    # no closed form exists for the mixed-unitary families
    proc = run_main("eval", "mixed-unitary-d3", "--probe", "single")
    assert proc.returncode == 2


def test_eval_gen_dephasing_phases():
    proc = run_main(
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
    assert run_main(*args, "--out", str(out1)).returncode == 0
    assert run_main(*args, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "family,param1,param2,probe_class,probability,probe_params"
    assert len(lines) == 1 + 10 * 10 * 2


def test_sweep_zero_width_range(tmp_path):
    out = tmp_path / "one.csv"
    proc = run_main(
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
    proc = run_main(
        "sweep", "depolarizing",
        "--param", "q1=0.9", "--param", "q2=0.3",
        "--probes", "single-closed",
        "--out", "/nonexistent-dir/sweep.csv",
    )
    assert proc.returncode == 3


def test_sweep_monotone_g_curve(tmp_path):
    out = tmp_path / "g.csv"
    proc = run_main(
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
        # the first point's closed form fails before the second point's channel
        # is built, also with an optimizer class in the sweep
        (
            ["depolarizing", "--param", "d=3", "--param", "q1=0.5:1.5:1.0", "--param", "q2=0.2",
             "--param", "g=0.3", "--probes", "nonmax-closed,optimize-single"],
            "the nonmax closed form for depolarizing needs d=2",
        ),
        # an infinite tolerance used to stop every start after one step
        (
            ["amplitude-damping", "--param", "mu1=0.3", "--param", "mu2=0.1",
             "--probes", "optimize-single", "--step-tolerance", "inf"],
            "step_tolerance must be positive and finite, got inf",
        ),
    ],
)
def test_sweep_rejects_points_eval_rejects(argv, message, capsys):
    assert main(["sweep", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_sweep_with_a_ranged_dimension_is_pinned():
    # points of different d have Kraus stacks of different shapes, so their
    # searches run as separate stacks; the rows and their bytes stay as pinned
    proc = run_main(
        "sweep", "depolarizing", "--param", "d=2:3:1", "--param", "q1=0.9", "--param", "q2=0.3",
        "--probes", "optimize-single,optimize-ent", "--restarts", "3", "--seed", "4",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        'family,param1,param2,probe_class,probability,probe_params',
        'depolarizing,2.0,,optimize-ent,0.7250000000000001,"{""d"": 2, ""optimizer_meta"": {""final_step"": 0.0, ""iterations"": 0, ""restarts"": 5}, ""q1"": 0.9, ""q2"": 0.3}"',
        'depolarizing,2.0,,optimize-single,0.6500000000000001,"{""d"": 2, ""optimizer_meta"": {""final_step"": 2.789997486616424e-16, ""iterations"": 1, ""restarts"": 5}, ""q1"": 0.9, ""q2"": 0.3}"',
        'depolarizing,3.0,,optimize-ent,0.7666666666666668,"{""d"": 3, ""optimizer_meta"": {""final_step"": 3.200043576638999e-16, ""iterations"": 1, ""restarts"": 5}, ""q1"": 0.9, ""q2"": 0.3}"',
        'depolarizing,3.0,,optimize-single,0.7000000000000003,"{""d"": 3, ""optimizer_meta"": {""final_step"": 0.0, ""iterations"": 0, ""restarts"": 5}, ""q1"": 0.9, ""q2"": 0.3}"',
    ]


# The stdout of these requests, one JSON object each, printed with indent=2.
EVAL_PINS = [
    (
        "eval dephasing --d 3 --r1 0.9 --r2 0.2 --probe maxent",
        '{"family": "dephasing", "params": {"d": 3, "r1": 0.9, "r2": 0.2}, "p1": 0.5, "probe_class": "max_entangled", "method": "closed_form", "probability": 0.85, "probe": {"dims": [3, 3], "amplitudes": [[0.5773502691896258, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5773502691896258, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5773502691896258, 0.0]]}, "optimizer_meta": null}',
    ),
    (
        "eval depolarizing --d 3 --q1 0.9 --q2 0.3 --probe maxent --p1 0.3",
        '{"family": "depolarizing", "params": {"d": 3, "q1": 0.9, "q2": 0.3}, "p1": 0.3, "probe_class": "max_entangled", "method": "fixed_probe", "probability": 0.708888888888889, "probe": {"dims": [3, 3], "amplitudes": [[0.5773502691896258, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5773502691896258, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5773502691896258, 0.0]]}, "optimizer_meta": null}',
    ),
    (
        "eval amplitude-damping --mu1 0.36 --mu2 0.09 --probe nonmax:g=.3,z=1.1",
        '{"family": "amplitude-damping", "params": {"mu1": 0.36, "mu2": 0.09}, "p1": 0.5, "probe_class": "nonmax", "method": "fixed_probe", "probability": 0.6306620045317219, "probe": {"dims": [2, 2], "amplitudes": [[0.5477225575051661, 0.0], [0.0, 0.0], [0.0, 0.0], [0.37950574298767725, 0.745637573516364]]}, "optimizer_meta": null}',
    ),
    (
        "eval depolarizing --q1 0.9 --q2 0.3 --probe schmidt:p=.2",
        '{"family": "depolarizing", "params": {"d": 2, "q1": 0.9, "q2": 0.3}, "p1": 0.5, "probe_class": "schmidt", "method": "fixed_probe", "probability": 0.703160056179763, "probe": {"dims": [2, 2], "amplitudes": [[0.4472135954999579, 0.0], [0.0, 0.0], [0.0, 0.0], [0.8944271909999159, 0.0]]}, "optimizer_meta": null}',
    ),
    (
        "eval mixed-unitary-d3 --probe zeta:c1=0.5,0,c2=0,0.5",
        '{"family": "mixed-unitary-d3", "params": {"d": 3, "weights": [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]}, "p1": 0.5, "probe_class": "zeta", "method": "fixed_probe", "probability": 1.0, "probe": {"dims": [3, 3], "amplitudes": [[0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5000000000000001, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.5000000000000001]]}, "optimizer_meta": null}',
    ),
    (
        "eval amplitude-damping --mu1 0.36 --mu2 0.09 --probe product:|1> --p1 0.4",
        '{"family": "amplitude-damping", "params": {"mu1": 0.36, "mu2": 0.09}, "p1": 0.4, "probe_class": "product", "method": "fixed_probe", "probability": 0.69, "probe": {"dims": [2, 2], "amplitudes": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]}, "optimizer_meta": null}',
    ),
    (
        "eval amplitude-damping --mu1 0.04 --mu2 0.01 --probe optimize-ent --restarts 2",
        '{"family": "amplitude-damping", "params": {"mu1": 0.04, "mu2": 0.01}, "p1": 0.5, "probe_class": "general_entangled", "method": "optimizer", "probability": 0.5294117647058824, "probe": {"dims": [2, 2], "amplitudes": [[0.6416889496996149, 7.858423182978603e-17], [-1.1102230246251565e-16, -1.4741208170282603e-32], [3.7798611801198003e-17, -3.6932771895700136e-32], [0.7669649873582268, 9.392612168263428e-17]]}, "optimizer_meta": {"restarts": 4, "iterations": 5, "final_step": 0.0, "evaluations": 86, "restart_values": [0.5294117647058824, 0.5294117647058824, 0.5294117647058824, 0.5294117647058824]}}',
    ),
]


@pytest.mark.parametrize("command, pinned", EVAL_PINS)
def test_eval_stdout_is_pinned(command, pinned):
    proc = run_main(*command.split())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == json.dumps(json.loads(pinned), indent=2) + "\n"


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
    probe = PureProbe(amplitudes.reshape(dims))
    if len(dims) == 1:
        fixed = discrim_fixed_single(ch1, ch2, probe)
    else:
        fixed = discrim_fixed_entangled(ch1, ch2, probe)
    assert payload["probability"] == pytest.approx(fixed.probability, abs=1e-8)


def test_custom_identical_channels(tmp_path):
    ch_dict = channel_to_dict(mixed_unitary_pair_d6()[0])
    path = tmp_path / "same.json"
    path.write_text(json.dumps({"channel1": ch_dict, "channel2": ch_dict}))
    proc = run_main("custom", str(path), "--probe", "single:|0>")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.5, abs=1e-12)


def test_custom_dimension6_pair(tmp_path):
    ch1, ch2 = mixed_unitary_pair_d6()
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps({"channel1": channel_to_dict(ch1), "channel2": channel_to_dict(ch2)})
    )
    proc = run_main("custom", str(path), "--probe", "single:|0>")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(1.0, abs=1e-12)


def test_custom_schema_and_cptp_errors(tmp_path):
    bad_schema = tmp_path / "bad.json"
    bad_schema.write_text(json.dumps({"channel1": {"dim_in": 2}}))
    proc = run_main("custom", str(bad_schema), "--probe", "single:|0>")
    assert proc.returncode == 2

    ch_dict = channel_to_dict(mixed_unitary_pair_d6()[0])
    broken = json.loads(json.dumps(ch_dict))
    broken["kraus"][0][0][0] = [2.0, 0.0]  # breaks trace preservation
    bad_cptp = tmp_path / "noncptp.json"
    bad_cptp.write_text(json.dumps({"channel1": broken, "channel2": ch_dict}))
    proc = run_main("custom", str(bad_cptp), "--probe", "single:|0>")
    assert proc.returncode == 4
    assert "residual" in proc.stderr

    proc = run_main("custom", str(tmp_path / "missing.json"), "--probe", "single:|0>")
    assert proc.returncode == 3
    assert "cannot read" in proc.stderr

    # a boolean is not an integer dimension, even where the matrices have a side
    # of 1: "dim_in": true raised a TypeError traceback, "dim_out": true ran as 1
    prepare = {"dim_in": True, "dim_out": 2, "kraus": [[[[1, 0]], [[0, 0]]]]}
    trace = {"dim_in": 2, "dim_out": True, "kraus": [[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]]}
    for i, ch in enumerate((prepare, trace)):
        flagged = tmp_path / f"bool-{i}.json"
        flagged.write_text(json.dumps({"channel1": ch, "channel2": ch}))
        proc = run_main("custom", str(flagged), "--probe", "single:|0>")
        assert proc.returncode == 2
        assert "dim_in and dim_out must be integers" in proc.stderr


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


def test_malformed_unitary_and_kraus_entries_exit_2(tmp_path, capsys):
    gen = ["eval", "gen-dephasing", "--r1", "0.9", "--r2", "0.2", "--probe", "single"]
    # pairs that decode to a vector used to raise an IndexError traceback, and a
    # 1x1 matrix used to exit 0 with a d = 1 channel
    for name, text in [("vector", "[[1,0],[0,0]]"), ("one", "[[[1,0]]]")]:
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        assert main([*gen, "--unitary-json", str(path)]) == 2
        captured = capsys.readouterr()
        assert "square matrix of size at least 2" in captured.err and captured.out == ""

    # a NaN Kraus entry used to exit 2 with "Eigenvalues did not converge"
    ch_dict = channel_to_dict(make_amplitude_damping(0.3))
    broken = json.loads(json.dumps(ch_dict))
    broken["kraus"][1][0][1] = [float("nan"), 0.0]
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({"channel1": ch_dict, "channel2": broken}))
    for probe in ("single:|0>", "optimize-single"):
        assert main(["custom", str(path), "--probe", probe]) == 2
        captured = capsys.readouterr()
        assert "channel2: malformed Kraus matrix 1" in captured.err and captured.out == ""


def test_main_is_reentrant(tmp_path, monkeypatch):
    # main parses with one parser built on its first call; no request may
    # leave state in it that a later request sees
    parser = cli._parser()
    parse = parser.parse_args
    calls = []

    def spy(argv):
        calls.append(argv)
        return parse(argv)

    monkeypatch.setattr(parser, "parse_args", spy)

    sweep = ("sweep", "amplitude-damping", "--param", "mu1=0.1:0.2:0.1",
             "--param", "mu2=0.3", "--probes", "single-closed,optimize-single",
             "--restarts", "2", "--seed", "3")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_main(*sweep, "--out", str(out1)).returncode == 0
    assert run_main(*sweep, "--out", str(out2)).returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert parse(list(sweep)).param == ["mu1=0.1:0.2:0.1", "mu2=0.3"]

    # an argparse usage error, then a valid request
    base = ("eval", "depolarizing", "--q1", "0.9", "--q2", "0.3")
    proc = run_main(*base, "--probe")
    assert proc.returncode == 2 and "expected one argument" in proc.stderr
    proc = run_main(*base, "--probe", "maxent")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["probability"] == pytest.approx(0.725, abs=1e-12)

    # a flag given once does not carry over to the next request
    proc = run_main(*base, "--probe", "maxent", "--p1", "0.3")
    assert proc.returncode == 0 and json.loads(proc.stdout)["p1"] == 0.3
    proc = run_main(*base, "--probe", "maxent")
    assert proc.returncode == 0 and json.loads(proc.stdout)["p1"] == 0.5

    # custom, then eval; the eval matches a fresh interpreter byte for byte
    path = tmp_path / "pair.json"
    ch1, ch2 = make_amplitude_damping(0.3), make_amplitude_damping(0.1)
    path.write_text(json.dumps({"channel1": channel_to_dict(ch1), "channel2": channel_to_dict(ch2)}))
    proc = run_main("custom", str(path), "--probe", "single:|1>")
    assert proc.returncode == 0, proc.stderr
    ad = ("eval", "amplitude-damping", "--mu1", "0.3", "--mu2", "0.1", "--probe", "single:|1>")
    proc = run_main(*ad)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == run_cli(*ad).stdout
    assert json.loads(proc.stdout)["family"] == "amplitude-damping"

    assert len(calls) == 8 and cli._parser() is parser


def test_verify_subset_passes(tmp_path):
    out = tmp_path / "report.json"
    proc = run_main("verify", "--only", "6,8,9,10", "--out", str(out))
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
    proc = run_main("verify", "--only", "1", "--tolerance-scale", "0", "--json")
    assert proc.returncode == 1
    reports = json.loads(proc.stdout)
    failed = {r["scenario_id"] for r in reports if not r["passed"]}
    assert failed and all("optimizer" in sid for sid in failed)


@pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
def test_verify_rejects_invalid_tolerance_scale(scale):
    # these used to run the battery: nan and -1 failed 3 of 9 checks, inf passed them all
    proc = run_main("verify", "--only", "1", "--tolerance-scale", scale)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: tolerance scale") and scale in proc.stderr
    assert proc.stdout == ""


def test_verify_zero_tolerance_prints_the_table():
    proc = run_main("verify", "--only", "1", "--tolerance-scale", "0")
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0].startswith("scenario")
    assert "checks passed" in proc.stdout and proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "dephasing", "--r1", "0.9", "--r2", "0.2", "--probe", "single"],
        ["sweep", "dephasing", "--param", "r1=0.9", "--param", "r2=0.2", "--probes", "single-closed"],
        ["custom", "pair.json", "--probe", "single:|0>"],
    ],
)
def test_json_flag_is_verify_only(argv):
    proc = run_main(*argv, "--json")
    assert proc.returncode == 2
    assert "unrecognized arguments: --json" in proc.stderr and proc.stdout == ""


def test_sweep_reads_the_unitary_file_once(tmp_path, monkeypatch):
    phases = [0.0, 1.1, 2.5]
    path = tmp_path / "u.json"
    path.write_text(json.dumps(to_pairs(np.diag(np.exp(1j * np.array(phases))))))
    grid = ["--param", "r1=0.5:0.9:0.4", "--param", "r2=0.1:0.3:0.2",
            "--probes", "single-closed,maxent-closed"]
    by_phases = run_main("sweep", "gen-dephasing", *grid, "--phases", ",".join(map(str, phases)))
    assert by_phases.returncode == 0, by_phases.stderr
    reads = []
    read = cli._read_json
    monkeypatch.setattr(cli, "_read_json", lambda p: reads.append(p) or read(p))
    by_file = run_main("sweep", "gen-dephasing", *grid, "--unitary-json", str(path))
    assert by_file.returncode == 0, by_file.stderr
    assert reads == [str(path)]
    assert len(by_file.stdout.splitlines()) == 1 + 4 * 2
    assert by_file.stdout == by_phases.stdout


def test_verify_seed_variation_keeps_pass_set(tmp_path):
    outcomes = []
    for seed in ("0", "1234"):
        proc = run_main("verify", "--only", "6,9,10", "--seed", seed, "--json")
        reports = json.loads(proc.stdout)
        outcomes.append({r["scenario_id"]: r["passed"] for r in reports})
        assert proc.returncode == 0
    assert outcomes[0] == outcomes[1]
