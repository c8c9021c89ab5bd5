"""The checks too slow for the tier-1 tests, as one pytest file.

They run lcprof at sizes the tier-1 tests do not reach: gamma,
plcp-enum, `profile --json`, `minpoly --json` and `plcp-check` over 2^18
F_2 terms and rueppel at its guard under a memory bound, the size guards
at n = 10^18, every benchmark workload against the benchmark's oracle,
the profile table against the JSON's mu and mu', and the recursive block
against the per-step core at 8192 terms.
From a checkout:

    PYTHONPATH=src python -m pytest -q tools/ci_checks.py

takes about 110 s on a 2-CPU machine; `--collect-only -q` lists the
cases and `-k` picks some.  Its name is not test_*.py, so the tier-1 run
does not collect it.

Every command runs as `python -m lcprof`, so without PYTHONPATH it runs
the installed package.  Every output goes to pytest's tmp_path.  Peak
RSS is a child's ru_maxrss, in KiB on Linux.
"""

from __future__ import annotations

import collections
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LCPROF = (sys.executable, "-m", "lcprof")
RUN_PY = (sys.executable, str(ROOT / "perfbench" / "run.py"))
MIB = 1024  # in KiB, the unit of ru_maxrss on Linux


# Linux starts a child's ru_maxrss at its parent's peak, and pytest peaks
# near 30 MiB, so a fresh interpreter (near 10 MiB) starts each measured
# child.  It waits with os.wait4, which reads that one child's rusage, not
# RUSAGE_CHILDREN's maximum over every child waited for, and prints the
# child's exit code and ru_maxrss.
_SPAWN = """\
import os, subprocess, sys
with open(sys.argv[1], "w") as out:
    pid = subprocess.Popen(sys.argv[2:], stdout=out).pid
    _, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_kib(args, out: Path) -> tuple[int, int]:
    """(exit code, peak RSS in KiB) of `python -m lcprof args`, stdout to out."""
    proc = subprocess.run([sys.executable, "-c", _SPAWN, str(out), *LCPROF, *args],
                          stdout=subprocess.PIPE, text=True, check=True)
    code, rss = map(int, proc.stdout.split())
    return code, rss


# ------------------------------------------------------- bounded memory

def test_gamma_at_the_guard_under_40_mib(tmp_path):
    out = tmp_path / "gamma.txt"
    code, rss = _peak_kib(["gamma", "--n", "32768"], out)
    assert code == 0, code
    text = out.read_text()
    assert text.split("+")[0].strip() == "x^32767", text[:40]
    assert rss < 40 * MIB, f"gamma --n 32768 peaked at {rss} KiB"
    proc = subprocess.run([*LCPROF, "gamma", "--n", "32769"],
                          stdout=subprocess.DEVNULL)
    assert proc.returncode == 4


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_plcp_enum_streams_under_64_mib(tmp_path, flags):
    args = ["plcp-enum", "--field", "11", "--n", "6", *flags]
    code, rss = _peak_kib(args, tmp_path / "enum.out")
    assert code == 0, (args, code)
    assert rss < 64 * MIB, f"lcprof {' '.join(args)} peaked at {rss} KiB"


def test_profile_json_at_2_18_terms_under_36_mib(tmp_path):
    # per term the report holds the terms and the deltas alone; one that
    # also held lc, exponents and Poly rows peaked at 41.4-41.8 MiB
    r = random.Random(2**18)
    terms, out = tmp_path / "terms", tmp_path / "report.json"
    terms.write_text(",".join(str(r.randrange(2)) for _ in range(2**18)) + "\n")
    code, rss = _peak_kib(["profile", "--json", "--field", "2", "--in", str(terms)], out)
    assert code == 0, code
    report = json.loads(out.read_text())
    # mu is monic over F_2, so its text starts with its leading term
    assert report["mu"].split("+", 1)[0] == f"x^{report['lc'][-1]}"
    assert rss < 36 * MIB, f"profile --json over 2^18 terms peaked at {rss} KiB"


def test_minpoly_json_at_2_18_terms_under_30_mib(tmp_path):
    # the run builds mu alone as a Poly; one through mp_run, which also
    # held the lc and exponents lists and four Poly rows, peaked at 35.0 MiB
    r = random.Random(2**18)
    terms, out = tmp_path / "terms", tmp_path / "minpoly.json"
    terms.write_text(",".join(str(r.randrange(2)) for _ in range(2**18)) + "\n")
    code, rss = _peak_kib(["minpoly", "--json", "--field", "2", "--in", str(terms)], out)
    assert code == 0, code
    report = json.loads(out.read_text())
    assert report["mu"].split("+", 1)[0] == f"x^{report['lc']}"
    assert rss < 30 * MIB, f"minpoly --json over 2^18 terms peaked at {rss} KiB"


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_plcp_check_at_2_18_terms_under_64_mib(tmp_path, flags):
    # the profile verdicts are folded step by step, so only the witnesses'
    # failing steps are held per term; one that also held the deltas and
    # the lc and exponent lists peaked at 72.2 (json) and 72.3 MiB
    r = random.Random(2**18)
    terms, out = tmp_path / "terms", tmp_path / "plcp.out"
    terms.write_text(",".join(str(r.randrange(2)) for _ in range(2**18)) + "\n")
    args = ["plcp-check", "--field", "2", "--in", str(terms), *flags]
    code, rss = _peak_kib(args, out)
    assert code == 0, code
    text = out.read_text()
    # random terms leave the perfect profile at once
    plcp = json.loads(text)["plcp"] if flags else text.split("\n", 1)[0]
    assert plcp in (False, "plcp = false"), text[:80]
    assert rss < 64 * MIB, f"plcp-check {' '.join(flags)} 2^18 terms peaked at {rss} KiB"


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_rueppel_at_the_guard_under_96_mib(tmp_path, flags):
    # 2^22 terms, the most the guard admits; one that copied the terms to
    # a list and joined one str per term peaked at 113 (json) and 346 MiB
    out = tmp_path / "rueppel.out"
    code, rss = _peak_kib(["rueppel", "--n", str(2**22), *flags], out)
    assert code == 0, code
    text = out.read_text()
    terms = (json.loads(text)["terms"] if flags
             else [int(t) for t in text.rstrip("\n").split(",")])
    assert terms[:4] == [1, 1, 0, 1] and len(terms) == 2**22, terms[:8]
    assert rss < 96 * MIB, f"rueppel --n 2^22 {' '.join(flags)} peaked at {rss} KiB"


@pytest.mark.parametrize("args", [
    ["plcp-enum", "--field", "3", "--n", str(10**18)],
    ["verify", "wang-massey", "--max-n", str(10**18)],
    ["verify", "bezout", "--max-n", str(10**18)],
    ["verify", "rueppel", "--max-n", str(10**18)],
], ids=["plcp-enum", "wang-massey", "bezout", "rueppel"])
def test_size_guard_exits_4_at_10_18(args):
    # the guards compare sizes and never build the power
    proc = subprocess.run([*LCPROF, *args], timeout=20)
    assert proc.returncode == 4


# ------------------------------------------------------------ perfbench

def test_benchmark_self_test():
    assert subprocess.run([*RUN_PY, "--self-test"], cwd=ROOT).returncode == 0


@pytest.mark.parametrize("workload", ["p65521-json", "f3-table", "f2-json",
                                      "verify-all"])
def test_workload_against_the_benchmark_oracle(tmp_path, workload):
    proc = subprocess.run(
        [*RUN_PY, "--workload", workload, "--seed", "1", "--seconds", "2",
         "--trace", "0", "--out", str(tmp_path / "pb.jsonl")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    assert json.loads(proc.stdout.splitlines()[-1])["correct"]


def test_traced_run_of_every_workload(tmp_path):
    proc = subprocess.run(
        [*RUN_PY, "--workload", "all", "--seed", "1", "--seconds", "1",
         "--trace", "1", "--out", str(tmp_path / "pbt.jsonl")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    results = [json.loads(line) for line in proc.stdout.splitlines()
               if line.startswith('{"correct"')]
    assert len(results) == 4, f"{len(results)} results, expected one a workload"
    assert all(r["correct"] for r in results), [r["correct"] for r in results]


# ------------------------------------------------------ engine and table

@pytest.mark.parametrize("p, n, seed", [
    (2**31 - 1, 700, 31), (2, 3001, 2), (3, 2001, 3), (5, 1001, 5),
], ids=["p2^31-1", "p2", "p3", "p5"])
def test_profile_table_against_the_json(tmp_path, p, n, seed):
    # the blocked F_(2^31-1) run in 9-byte slots against the per-step
    # table, and the grouped small-field table renderer
    r = random.Random(seed)
    terms, report, table = (tmp_path / name for name in ("terms", "json", "table"))
    terms.write_text(",".join(str(r.randrange(p)) for _ in range(n)) + "\n")
    for out, flags in ((report, ["--json"]), (table, [])):
        with out.open("w") as fh:
            subprocess.run([*LCPROF, "profile", *flags, "--field", str(p),
                            "--in", str(terms)], stdout=fh, check=True)
    d = json.loads(report.read_text())
    with table.open() as fh:
        row = collections.deque(fh, maxlen=1)[0].split()
    assert row[0] == str(n), row[:3]
    assert (d["mu"], d["mu_prime"]) == (row[3], row[4]), \
        f"table and JSON mu, mu_prime differ over F_{p}"


def test_recursive_block_against_the_per_step_core_at_8192_terms():
    # one rng draws every input, a random, a {0,1} and a zero-run input
    # for each field in turn, so the fields are not parametrized: a case
    # run alone would draw other inputs
    from lcprof import engine
    from lcprof.fields import PrimeField

    rng = random.Random(8192)
    for p in (5, 11, 65521, 2**31 - 1):
        dom = PrimeField(p)
        inputs = {"random": [rng.randrange(p) for _ in range(8192)],
                  "{0,1}": [rng.randrange(2) for _ in range(8192)],
                  "zero runs": [rng.randrange(p) if rng.random() < 0.1 else 0
                                for _ in range(8192)]}
        for kind, terms in inputs.items():
            ref = engine._GenericCore(dom)
            deltas = [ref.step(t) for t in terms]
            core = engine._GenericCore(dom)
            assert engine._consume(core, terms) == deltas, (p, kind)
            for slot in ("s", "mu", "mup", "e", "dprime", "nabla", "j"):
                assert getattr(core, slot) == getattr(ref, slot), (p, kind, slot)
