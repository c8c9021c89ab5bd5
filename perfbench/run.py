"""The lcprof benchmark: one workload run, a comparison, or the self-test.

Run from the root of a checkout:

    python3 perfbench/run.py --workload f2-json --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --compare parent.jsonl change.jsonl
    python3 perfbench/run.py --self-test

A run generates its inputs from the seed, serves them to lcprof the way
a user's single client would (one request at a time, a fresh worker
process per run), checks every output against an oracle that does not
use the engine, appends a record to .perfbench/results.jsonl (or --out)
and prints, last, one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list; with --trace 1 they are
its per_layer list, from a separate traced run.  NOTES.md says why each
workload exists and what each metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure
import oracle
from worker import OutputLog, until
from workloads import (WORKLOADS, Profile, VerifyAll, inputs_digest, make_inputs,
                       write_inputs)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BENCH = Path(__file__).resolve().parent
RUN_LIMIT_S = 170          # a run is killed past this, so it exits within 180 s
SETUP_SPAWNS = 11
LCPROF_MODULES = ("lcprof", "lcprof.errors", "lcprof.fields", "lcprof.gf2",
                  "lcprof.poly", "lcprof.engine", "lcprof.analysis",
                  "lcprof.rueppel", "lcprof.verify", "lcprof.cli")
MIN_P90_BEYOND = 10
perf_counter = time.perf_counter


class BenchError(Exception):
    """The run cannot produce a result (missing program, crashed child)."""


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment of every child: the checkout's src/, serial sweeps.

    LCPROF_THREADS is removed, so the verify sweeps never fork a pool.
    glibc's mmap threshold is pinned at its default of 128 KiB.  Left
    dynamic, it rises after the first large free, so a long-lived worker
    keeps large freed buffers that a fresh `lcprof` process would return,
    and f3-table's peak RSS read 93 or 106 MiB from run to run.
    """
    env = {k: v for k, v in os.environ.items() if k != "LCPROF_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


class Runner:
    """Starts one child at a time and waits for it, within the run's limit."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.dirs = 0
        self.env = child_env()
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, args, stdout=None, stderr=None) -> tuple[float, int]:
        """Run `python3 ARGS` to completion; (wall seconds, exit code)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run time limit reached")
        with contextlib.ExitStack() as stack:
            out, err = (stack.enter_context(open(p, "w")) if p else subprocess.DEVNULL
                        for p in (stdout, stderr))
            t0 = perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                    env=self.env, cwd=self.workdir)
            # a blocking wait wakes at exit; Popen.wait(timeout) polls in
            # steps of up to 50 ms, which would quantise the timings
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
            wall = perf_counter() - t0
        if code < 0:
            raise BenchError(f"{args} killed by signal {-code}")
        return wall, code

    def must(self, args, **kw) -> float:
        wall, code = self.spawn(args, **kw)
        if code != 0:
            raise BenchError(f"{args} exited with {code}")
        return wall

    def fresh_dir(self) -> Path:
        self.dirs += 1
        path = self.workdir / f"out-{self.dirs}"
        path.mkdir()
        return path

    def worker(self, spec: dict) -> dict:
        """Run worker.py on spec; it keeps its outputs in a fresh directory."""
        spec = dict(spec, out_path=str(self.workdir / "out.txt"),
                    keep_dir=str(self.fresh_dir()))
        spec_path = self.workdir / "spec.json"
        result_path = self.workdir / "result.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        err = self.workdir / "worker.err"
        _, code = self.spawn([str(BENCH / "worker.py"), str(spec_path), str(result_path)],
                             stderr=err)
        if code != 0:
            tail = err.read_text(encoding="utf-8").strip().splitlines()[-3:]
            raise BenchError(f"worker exited with {code}: {' | '.join(tail)}")
        return json.loads(result_path.read_text(encoding="utf-8"))


# ------------------------------------------------------------------ set-up

def measure_setup(runner: Runner) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that `import lcprof.cli`.

    Returns them with host-speed kernel times taken between the spawns.
    """
    cmd = ["-c", "import lcprof.cli"]
    runner.must(cmd)                    # fills the bytecode cache; not timed
    walls, kernel = [], []
    for _ in range(SETUP_SPAWNS):
        kernel += [measure.kernel_s() for _ in range(3)]
        walls.append(runner.must(cmd))
    return walls, kernel


def parse_importtime(text: str) -> tuple[float, dict[str, float]]:
    """(cumulative s of the top-level lcprof imports, {module: self s})."""
    total, own = 0.0, {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        head, cum, name = line.split("|")
        self_us = int(head.split(":")[1])
        module = name.strip()
        if not module.startswith("lcprof"):
            continue
        own[module] = self_us / 1e6
        if len(name) - len(name.lstrip()) == 1:      # imported at top level
            total += int(cum) / 1e6
    return total, own


def setup_layers(runner: Runner) -> dict[str, float]:
    runner.must(["-c", "import lcprof.cli"])
    python = [runner.must(["-c", "pass"]) for _ in range(5)]
    totals, own = [], {m: [] for m in LCPROF_MODULES}
    err = runner.workdir / "importtime.err"
    for _ in range(5):
        runner.must(["-X", "importtime", "-c", "import lcprof.cli"], stderr=err)
        total, mods = parse_importtime(err.read_text(encoding="utf-8"))
        totals.append(total)
        for m in LCPROF_MODULES:
            own[m].append(mods.get(m, 0.0))
    out = {"setup.python_s": statistics.median(python),
           "setup.import_s": statistics.median(totals)}
    for m in LCPROF_MODULES:
        out[f"setup.import.{m}_s"] = statistics.median(own[m])
    return out


# --------------------------------------------------------------- workloads

def check_logs(results: list[dict], check) -> tuple[int, list[str]]:
    """(requests attempted, problems) over workers' output logs.

    check(case, path) judges one kept output; each distinct output is
    judged once and the verdict applies to every request that produced it.
    """
    verdicts: dict[str, str] = {}
    attempted, problems = 0, []
    for res in results:
        for case, rc, key in res["requests"]:
            attempted += 1
            if rc != 0:
                problem = f"exit code {rc}"
            elif key in verdicts:
                problem = verdicts[key]
            else:
                problem = verdicts[key] = check(case, res["outputs"][key])
            if problem:
                problems.append(f"case {case}: {problem}")
    return attempted, problems


def check_verify_file(_case: int, path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return oracle.check_verify(fh.read())


def run_profile(runner: Runner, name: str, seed: int, seconds: int,
                trace: bool) -> tuple[dict, str]:
    spec = WORKLOADS[name]
    seqs = make_inputs(name, seed)
    paths = write_inputs(seqs, str(runner.workdir))
    digest = inputs_digest(name, paths)
    # the oracle runs here, before the worker starts and outside any timing
    profiles = [oracle.bm_profile(terms, spec.field) for terms in seqs]
    res = runner.worker({
        "mode": "profile", "trace": trace, "seconds": seconds,
        "argv": [spec.argv(p) for p in paths],
        "spans_path": str(WORK / "spans" / f"{name}.jsonl"),
    })

    def check(case, path):
        with open(path, encoding="utf-8") as fh:
            if spec.json:
                return oracle.check_json(fh.read(), seqs[case], spec.field,
                                         profiles[case])
            return oracle.check_table(fh, spec.n, profiles[case])

    res["attempted"], res["problems"] = check_logs([res], check)
    return res, digest


def run_verify_plain(runner: Runner, seconds: int) -> dict:
    """Untraced verify-all: each request is a fresh `lcprof verify all` process.

    cli_child.py runs it as `python -m lcprof` does and reports the
    process's own peak RSS and host-speed samples; the request time
    excludes the time those samples took.
    """
    out = runner.workdir / "out.txt"
    err = runner.workdir / "err.txt"
    log = OutputLog(str(runner.fresh_dir()))
    kernel = []

    def one(_k):
        wall, code = runner.spawn([str(BENCH / "cli_child.py"), *VerifyAll.argv],
                                  stdout=out, stderr=err)
        log.add(0, code, str(out))
        lines = [line for line in err.read_text(encoding="utf-8").splitlines()
                 if line.startswith("perfbench ")]
        if not lines:
            raise BenchError("cli_child.py wrote no measurements")
        child = json.loads(lines[-1].split(" ", 1)[1])
        kernel.extend(child["kernel_s"])
        return wall - child["kernel_spent_s"], child["peak_rss_mib"]

    timed = until(seconds, one)
    res = {"latencies": [w for w, _ in timed], "peak_rss_mib": max(r for _, r in timed),
           "kernel_s": kernel, **log.as_dict()}
    res["attempted"], res["problems"] = check_logs([res], check_verify_file)
    return res


def run_verify_traced(runner: Runner, seconds: int) -> dict:
    """Traced verify-all: fresh worker processes, alternately plain and traced."""
    def pair(k):
        spans = str(WORK / "spans" / f"verify-all-{k}.jsonl")
        plain, traced = (runner.worker({"mode": "verify", "trace": trace,
                                        "argv": [list(VerifyAll.argv)],
                                        "spans_path": spans})
                         for trace in (False, True))
        return plain["latencies"][0] + traced["latencies"][0], plain, traced

    timed = until(seconds, pair)
    plains = [p for _, p, _ in timed]
    traced = [t for _, _, t in timed]
    attempted, problems = check_logs(plains + traced, check_verify_file)
    return {
        "latencies": [p["latencies"][0] for p in plains],
        "traced_latencies": [t["latencies"][0] for t in traced],
        "layers": {k: statistics.fmean(t["layers"][k] for t in traced)
                   for k in traced[0]["layers"]},
        "rss_base_mib": statistics.fmean(p["rss_base_mib"] for p in plains),
        # tracemalloc makes `verify all` about 7x slower, so the heap figure
        # here is the plain process's peak RSS above its RSS after import
        "heap_peak_mib": statistics.fmean(p["peak_rss_mib"] - p["rss_base_mib"]
                                          for p in plains),
        "out_bytes": statistics.fmean(t["out_bytes"] for t in traced),
        "attempted": attempted, "problems": problems,
    }


# ----------------------------------------------------------------- results

def latency_summary(lat: list[float], terms: int | None, scale: float | None) -> dict:
    """Request figures: wall time as measured and, given the host-speed
    scale, every figure at nominal host speed (each time times scale)."""
    summary = {"requests": len(lat), "latency_p50_wall_s": statistics.median(lat)}
    if scale is None:
        return summary
    lat = [x * scale for x in lat]
    summary["latency_p50_s"] = statistics.median(lat)
    if terms:
        summary["terms_per_s"] = terms * len(lat) / sum(lat)
    if len(lat) >= 2:
        p90 = statistics.quantiles(lat, n=10)[8]
        beyond = sum(1 for x in lat if x > p90)
        if beyond >= MIN_P90_BEYOND:
            summary["latency_p90_s"] = p90
            summary["p90_beyond"] = beyond
    return summary


def read_commit() -> str:
    """The checked-out commit from .git, or 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    import hashlib
    h = hashlib.sha256()
    for path in sorted((SRC / "lcprof").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(),
            "cpu": cpu, "commit": read_commit(), "src_sha256": src_digest()}


UNITS = {"setup_s": "s", "setup_wall_s": "s", "terms_per_s": "1/s",
         "latency_p50_s": "s", "latency_p50_wall_s": "s", "latency_p90_s": "s",
         "peak_rss_mib": "MiB", "fail_ratio": "ratio", "host_slowdown": "ratio"}


def print_summary(name: str, record: dict, terms: int | None) -> None:
    s = record["summary"]
    n = s["requests"]
    print(f"workload {name}  seed {record['seed']}  trace {record['trace']}  "
          f"inputs sha256 {record['inputs_sha256'][:16]}")
    nominal = "at nominal host speed"
    rows = [("setup_s", f"median of {s.get('setup_spawns')} spawns, {nominal}"),
            ("terms_per_s", f"{n} requests of {terms} terms, {nominal}"),
            ("latency_p50_s", f"{n} requests, {nominal}"),
            ("latency_p90_s", f"{n} requests, {s.get('p90_beyond')} beyond, {nominal}"),
            ("peak_rss_mib", "process that served the requests"),
            ("fail_ratio", f"{record['failed']} of {record['attempted']} attempted"),
            ("setup_wall_s", "as measured"),
            ("latency_p50_wall_s", "as measured"),
            ("host_slowdown", "median host-speed kernel time / nominal")]
    for key, note in rows:
        if key in s:
            print(f"  {key:<18} {s[key]:>14.6g} {UNITS[key]:<6} ({note})")
    if "latency_p50_s" in s and "latency_p90_s" not in s:
        print(f"  {'latency_p90_s':<18} {'n/a':>14}        ({n} requests leave fewer "
              f"than {MIN_P90_BEYOND} beyond the 90th percentile)")
    for problem in record["problems"][:5]:
        print(f"  FAILED CHECK: {problem}")


def run(args) -> int:
    if not (SRC / "lcprof" / "cli.py").is_file():
        raise BenchError(f"no lcprof sources under {SRC}")
    decl = load_declaration()
    name = args.workload
    spec = WORKLOADS[name]
    profile = isinstance(spec, Profile)
    trace = bool(args.trace)
    workdir = WORK / f"run-{name}-{args.seed}-{os.getpid()}"
    (WORK / "spans").mkdir(parents=True, exist_ok=True)
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir)
        if trace:
            layers = setup_layers(runner)
        else:
            setup = measure_setup(runner)
        if profile:
            res, digest = run_profile(runner, name, args.seed, args.seconds, trace)
        else:
            digest = inputs_digest(name, [])
            res = (run_verify_traced(runner, args.seconds) if trace
                   else run_verify_plain(runner, args.seconds))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = res["attempted"], len(res["problems"])
    # traced runs report layers as measured; only untraced runs are scaled
    scale = None if trace else measure.scale(res["kernel_s"])
    summary = latency_summary(res["latencies"], spec.n if profile else None, scale)
    summary["fail_ratio"] = failed / attempted
    if trace:
        plain = statistics.median(res["latencies"])
        layers.update(res["layers"])
        layers["cli.out_bytes"] = res["out_bytes"]
        layers["mem.rss_base_mib"] = res["rss_base_mib"]
        layers["mem.heap_peak_mib"] = res["heap_peak_mib"]
        layers["trace.overhead_share"] = (
            statistics.median(res["traced_latencies"]) - plain) / plain
        declared, values = decl["per_layer"], layers
    else:
        walls, kernel = setup
        summary.update(setup_s=statistics.median(walls) * measure.scale(kernel),
                       setup_wall_s=statistics.median(walls), setup_spawns=len(walls),
                       peak_rss_mib=res["peak_rss_mib"],
                       host_slowdown=1 / scale)
        declared, values = decl["end_to_end"], summary
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": int(trace), "inputs_sha256": digest,
              "provenance": provenance(), "summary": summary,
              "attempted": attempted, "failed": failed,
              "problems": res["problems"], "metrics": metrics}
    out = Path(args.out) if args.out else WORK / "results.jsonl"
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")

    print_summary(name, record, spec.n if profile else None)
    for key, m in metrics.items() if trace else ():
        print(f"  {key:<40} {m['value']:>14.6g} {m['unit']}")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="the workload to run, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="results file to append to "
                                      "(default .perfbench/results.jsonl)")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two results files")
    parser.add_argument("--self-test", action="store_true",
                        help="check that the output checks can fail")
    args = parser.parse_args(argv)
    try:
        if args.compare:
            import compare
            return compare.main(*args.compare, load_declaration())
        if args.self_test:
            import selftest
            return selftest.main()
        if not args.workload:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        if args.workload == "all":
            for name in WORKLOADS:
                run(argparse.Namespace(**{**vars(args), "workload": name}))
            return 0
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
