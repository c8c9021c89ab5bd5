"""Self-test: the output checks accept right outputs and reject wrong ones.

    python3 perfbench/run.py --self-test

1. The Berlekamp-Massey oracle agrees with lcprof's mp_run on small
   sequences over F_2, F_3 and F_65521.
2. Real lcprof outputs pass the checks; corrupted copies (one LC entry
   flipped, a wrong mu, a wrong degree in the table, a missing row, a
   wrong header, a wrong `checked` count, a failed suite) fail them.
3. A run whose program corrupts its output, or exits with 3, ends with
   fail_ratio > 0, through the same request log and checks a benchmark
   run uses; a run of lcprof ends with fail_ratio 0.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile

import oracle
import run
import worker
from workloads import write_inputs

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def oracle_agrees_with_engine() -> None:
    from lcprof.engine import mp_run
    from lcprof.fields import PrimeField
    from lcprof.poly import Seq

    rng = random.Random(2011)
    for p in (2, 3, 65521):
        bad = 0
        for k in range(300):
            n = rng.randrange(0, 48)
            sparse = k % 3 == 1
            terms = [rng.randrange(p) if not sparse or rng.random() < 0.1 else 0
                     for _ in range(n)]
            _, rep = mp_run(Seq(PrimeField(p), terms))
            bad += rep.lc != oracle.bm_profile(terms, p)
        expect(bad == 0, f"BM oracle matches mp_run on 300 sequences over F_{p}")


def cli_output(argv: list[str]) -> str:
    from lcprof.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0, argv
    return buf.getvalue()


def checks_reject_corruption(tmp: str) -> None:
    rng = random.Random(7)
    for p in (2, 65521):
        terms = [rng.randrange(p) for _ in range(96)]
        path = write_inputs([terms], tmp)[0]
        text = cli_output(["profile", "--json", "--field", str(p), "--in", path])
        profile = oracle.bm_profile(terms, p)
        expect(oracle.check_json(text, terms, p, profile) == "",
               f"F_{p} JSON output passes")
        rep = json.loads(text)
        flipped = dict(rep, lc=list(rep["lc"]))
        flipped["lc"][40] += 1
        expect(oracle.check_json(json.dumps(flipped), terms, p, profile) != "",
               f"F_{p} JSON with one LC entry flipped fails")
        low = oracle.parse_poly(rep["mu"], p)
        low[0] = low.get(0, 0) % (p - 1) + 1 if p > 2 else 1 - low.get(0, 0)
        wrong_mu = "+".join(f"{c}x^{d}" for d, c in sorted(low.items(), reverse=True)
                            if c)
        expect(oracle.check_json(json.dumps(dict(rep, mu=wrong_mu)), terms, p,
                                 profile) != "",
               f"F_{p} JSON with a wrong constant term in mu fails")

    terms = [rng.randrange(3) for _ in range(64)]
    path = write_inputs([terms], tmp)[0]
    lines = cli_output(["profile", "--field", "3", "--in", path]).splitlines()
    profile = oracle.bm_profile(terms, 3)
    expect(oracle.check_table(lines, 64, profile) == "", "F_3 table passes")
    cells = lines[30].split()
    cells[3] = "x^40+" + cells[3]
    expect(oracle.check_table(lines[:30] + ["  ".join(cells)] + lines[31:], 64,
                              profile) != "",
           "F_3 table with a wrong mu^(j) degree fails")
    expect(oracle.check_table(lines[:-1], 64, profile) != "",
           "F_3 table missing its last row fails")
    expect(oracle.check_table(["j Delta_j"] + lines[1:], 64, profile) != "",
           "F_3 table with a wrong header fails")

    good = "\n".join(f"{s}: pass, {c} checks" for s, c in oracle.VERIFY_COUNTS.items())
    expect(oracle.check_verify(good) == "", "verify output with the seed's counts passes")
    expect(oracle.check_verify(good.replace("942", "941")) != "",
           "verify output with a wrong checked count fails")
    expect(oracle.check_verify(good.replace("lcsum: pass", "lcsum: FAIL")) != "",
           "verify output with a failed suite fails")


def corrupted_run_fails(tmp: str) -> None:
    """The run-level pipeline: request log, kept outputs, checks, fail_ratio."""
    from lcprof.cli import main

    def flip_one_lc(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
        rep = json.loads(buf.getvalue())
        rep["lc"][-1] += 1
        print(json.dumps(rep))
        return rc

    rng = random.Random(11)
    seqs = [[rng.randrange(2) for _ in range(256)] for _ in range(2)]
    paths = write_inputs(seqs, tmp)
    profiles = [oracle.bm_profile(t, 2) for t in seqs]
    argv = [["profile", "--json", "--field", "2", "--in", p] for p in paths]

    def check(case, path):
        with open(path, encoding="utf-8") as fh:
            return oracle.check_json(fh.read(), seqs[case], 2, profiles[case])

    def exit_3(_argv):
        return 3

    for label, program, want_fail in (("lcprof", main, False),
                                      ("an LC-flipping program", flip_one_lc, True),
                                      ("a program exiting with 3", exit_3, True)):
        with tempfile.TemporaryDirectory(dir=tmp) as keep:
            req = worker.Requests({"out_path": f"{keep}/out.txt", "argv": argv,
                                   "keep_dir": keep}, program)
            for k in range(4):
                req.run(k % 2)
            res = req.log.as_dict()
            attempted, problems = run.check_logs([res], check)
        ratio = len(problems) / attempted
        expect((ratio > 0) == want_fail,
               f"a run of {label} has fail_ratio {ratio:g} ({len(problems)}/{attempted})")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        oracle_agrees_with_engine()
        checks_reject_corruption(tmp)
        corrupted_run_fails(tmp)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
