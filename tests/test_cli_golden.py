"""Golden CLI outputs: a fixed command set through ``cli.main`` in this process.

Each command's exit code, stdout and stderr must match ``cli_golden.json``.
The set runs every ``eval`` probe spec of the README, and malformed
variants, on every family at ``--p1`` 0.5 and 0.3 (the optimizer specs on
qubit inputs only, to keep the test fast), and ``sweep`` commands that reach
each rejection of ``cmd_sweep``, ``_parse_param_spec`` and ``_sweep_closed``.
The record maps each command line to its exit code, the first 16 hex digits
of the SHA-256 of its stdout ("" for no output) and its stderr as printed.

Regenerate the record only for an intended output change, and say why:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import hashlib
import json
import pathlib

from helpers import run_main

RECORD = pathlib.Path(__file__).with_name("cli_golden.json")

# Every family, with its parameters; a family may appear with several inputs.
FAMILY_ARGS = [
    ("depolarizing", "--q1", "0.9", "--q2", "0.3"),
    ("depolarizing", "--d", "3", "--q1", "0.9", "--q2", "0.3"),
    ("dephasing", "--r1", "0.9", "--r2", "0.2"),
    ("dephasing", "--d", "3", "--r1", "0.9", "--r2", "0.2"),
    # hull cases: widest gap above pi, origin in a triangle, antipodal pair, one point
    ("gen-dephasing", "--phases", "0,1.0471975511965976", "--r1", "0.8", "--r2", "0.2"),
    ("gen-dephasing", "--phases", "0,1,2.5", "--r1", "0.9", "--r2", "0.2"),
    ("gen-dephasing", "--phases", "0,2,4", "--r1", "0.9", "--r2", "0.2"),
    ("gen-dephasing", "--phases", "0,3.141592653589793", "--r1", "0.9", "--r2", "0.2"),
    ("gen-dephasing", "--phases", "0.5,0.5", "--r1", "0.9", "--r2", "0.2"),
    ("amplitude-damping", "--mu1", "0.04", "--mu2", "0.01"),
    ("amplitude-damping", "--mu1", "0.36", "--mu2", "0.09"),
    ("erasure", "--eps1", "0.8", "--eps2", "0.3"),
    ("erasure", "--d", "3", "--eps1", "0.8", "--eps2", "0.3"),
    ("mixed-unitary-d3",),
    ("mixed-unitary-d3", "--weights", "0.5,0.25,0.25"),
    ("mixed-unitary-d6",),
]

PROBE_SPECS = [
    "single", "product", "maxent", "nonmax:g=0.3", "nonmax:g=0.3,z=1.1", "schmidt:p=0.3",
    "zeta:c1=0.5,0,c2=0.5,0", "zeta:c1=0.5,0,c2=0,0.5", "single:|0>", "single:|1>",
    "single:uniform", "single:theta=1.2,delta=0.4", "product:|1>", "product:uniform",
]
OPTIMIZER_SPECS = ["optimize-single", "optimize-ent"]
MALFORMED_SPECS = [
    "bogus", "maxent:x", "single:|5>", "single:|x>", "single:nope", "single:theta=1,delta",
    "nonmax", "nonmax:q=0.3", "nonmax:g=abc", "nonmax:g=1.5", "nonmax:g=-0.1", "nonmax:g=nan",
    "nonmax:g=0", "schmidt:p=0", "schmidt:p=1", "schmidt:p=1.5", "schmidt:p=nan",
    "zeta:c1=0.5,0", "zeta:c1=a,0,c2=0.5,0", "zeta:c1=0.6,0,c2=0.5,0", "product:bogus",
]

_AD = ("amplitude-damping", "--param", "mu1=0.04:0.36:0.32", "--param", "mu2=0.01")
SWEEPS = [
    # _parse_param_spec
    ("depolarizing", "--param", "q1", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=abc", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.1:0.2", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=a:b:c", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.1:inf:0.1", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.1:0.5:0", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.1:0.5:-0.1", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.1:0.2:1e-20", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.5:0.1:0.1", "--probes", "single-closed"),
    # cmd_sweep
    ("depolarizing", "--param", "q1=0.9", "--param", "q1=0.8", "--probes", "single-closed"),
    ("depolarizing", "--param", "x=1", "--probes", "single-closed"),
    ("mixed-unitary-d3", "--param", "d=3", "--probes", "single-closed"),
    ("depolarizing", "--probes", "single-closed"),
    ("depolarizing", "--param", "d=2:3:1", "--param", "q1=0.5:0.9:0.4",
     "--param", "q2=0.1:0.3:0.2", "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.9", "--param", "q2=0.3", "--probes", ","),
    ("depolarizing", "--param", "q1=0.9", "--param", "q2=0.3", "--probes", "single"),
    ("depolarizing", "--param", "q1=0.9", "--param", "q2=0.3", "--probes", "nonmax-closed"),
    ("depolarizing", "--param", "q1=0.9", "--param", "q2=0.3", "--param", "d=2.5",
     "--probes", "single-closed"),
    ("depolarizing", "--param", "q1=0.5:1.5:1.0", "--param", "q2=0.3", "--probes", "single-closed"),
    ("erasure", "--param", "eps1=-2", "--param", "eps2=0.3", "--probes", "maxent-closed"),
    ("gen-dephasing", "--param", "r1=0.9", "--param", "r2=0.2", "--probes", "single-closed"),
    ("gen-dephasing", "--param", "r1=0.9", "--param", "r2=0.2", "--phases", "0,1",
     "--unitary-json", "absent.json", "--probes", "single-closed"),
    # _sweep_closed
    ("dephasing", "--param", "r1=0.9", "--param", "r2=0.2", "--probes", "nonmax-closed"),
    ("erasure", "--param", "eps1=0.9", "--param", "eps2=0.2", "--probes", "nonmax-closed"),
    ("depolarizing", "--param", "d=3", "--param", "q1=0.9", "--param", "q2=0.3",
     "--param", "g=0.3", "--probes", "nonmax-closed"),
    # sweeps that succeed
    (*_AD, "--param", "p=0.2:0.6:0.4",
     "--probes", "single-closed,maxent-closed,nonmax-closed"),
    (*_AD, "--probes", "optimize-single,optimize-ent", "--restarts", "2", "--seed", "3"),
    ("depolarizing", "--param", "g=0:1:0.5", "--param", "q1=0.9", "--param", "q2=0.3",
     "--probes", "nonmax-closed,single-closed,maxent-closed"),
    ("dephasing", "--param", "d=2:4:1", "--param", "r1=0.9", "--param", "r2=0.2",
     "--probes", "single-closed,maxent-closed"),
    ("gen-dephasing", "--param", "r1=0.5:0.9:0.4", "--param", "r2=0.2", "--phases", "0,2,4",
     "--probes", "single-closed,maxent-closed"),
    ("erasure", "--param", "d=3", "--param", "eps1=0.8", "--param", "eps2=0.3",
     "--probes", "single-closed,maxent-closed"),
]


def _qubit_input(family_args) -> bool:
    family = family_args[0]
    if family in ("mixed-unitary-d3", "mixed-unitary-d6"):
        return False
    if family == "gen-dephasing":
        return len(family_args[family_args.index("--phases") + 1].split(",")) == 2
    return "--d" not in family_args


def commands() -> list[list[str]]:
    out = []
    for family_args in FAMILY_ARGS:
        specs = PROBE_SPECS + MALFORMED_SPECS
        if _qubit_input(family_args):
            specs = specs + OPTIMIZER_SPECS
        for spec in specs:
            for p1 in ("0.5", "0.3"):
                argv = ["eval", *family_args, "--probe", spec, "--p1", p1]
                if spec in OPTIMIZER_SPECS:
                    argv += ["--restarts", "2", "--seed", "1"]
                out.append(argv)
    out += [["sweep", *argv] for argv in SWEEPS]
    return out


def _outcome(argv) -> list:
    proc = run_main(*argv)
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] if proc.stdout else ""
    return [proc.returncode, digest, proc.stderr]


def test_cli_outputs_match_the_record():
    record = json.loads(RECORD.read_text())
    lines = [" ".join(argv) for argv in commands()]
    assert list(record) == lines, "the command set changed; regenerate the record"
    changed = [line for line in lines if _outcome(line.split(" ")) != record[line]]
    assert not changed, f"{len(changed)} commands changed their output, first: {changed[:5]}"


if __name__ == "__main__":
    entries = [json.dumps(" ".join(argv)) + ": " + json.dumps(_outcome(argv)) for argv in commands()]
    RECORD.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    print(f"recorded {len(entries)} commands in {RECORD}")
