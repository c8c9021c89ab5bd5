"""Serve one workload run's requests in a fresh process.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

run.py writes SPEC and starts this process with PYTHONPATH pointing at
the checkout's src/.  Profile requests are in-process
`lcprof.cli.main(argv)` calls whose stdout goes to a file, as with
`lcprof ... > out`; each distinct output is kept for run.py to check.
A `verify` spec runs `lcprof verify all` once in this fresh process,
which is how the traced run times that workload; its untraced requests
are cli_child.py processes, started by run.py.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import statistics
import sys
import time
import tracemalloc

import measure
from measure import peak_rss_mib
from tracing import Tracer

perf_counter = time.perf_counter


def file_digest(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def until(seconds: float, one) -> list:
    """Call one(k) for k = 0, 1, ... until the next call would overrun.

    Returns every call's result; the first call always runs, and each
    result's first element is that call's latency, whose median predicts
    the next one.
    """
    out = []
    start = perf_counter()
    while not out or (perf_counter() - start
                      + statistics.median(r[0] for r in out)) <= seconds:
        out.append(one(len(out)))
    return out


class OutputLog:
    """Which output each request produced, keeping one copy of each distinct one.

    Outputs are identified by case and sha256, so the checks run once per
    distinct output, after the timed work and in the process that started
    the run, and the serving process holds no oracle data.
    """

    def __init__(self, keep_dir: str):
        self.keep_dir = keep_dir
        self.outputs: dict[str, str] = {}   # key -> kept copy
        self.requests: list[list] = []      # [case, exit code, key] per request
        self.out_bytes = 0

    def add(self, case: int, rc: int, path: str) -> None:
        key = f"{case}-{file_digest(path)}"
        if key not in self.outputs:
            kept = os.path.join(self.keep_dir, f"out-{len(self.outputs)}.txt")
            os.replace(path, kept)
            self.outputs[key] = kept
        self.requests.append([case, rc, key])
        self.out_bytes += os.path.getsize(self.outputs[key])

    def as_dict(self) -> dict:
        return {"outputs": self.outputs, "requests": self.requests,
                "out_bytes": self.out_bytes / max(1, len(self.requests))}


class Requests:
    """In-process requests `main(argv)`, stdout to a file as with `> out`."""

    def __init__(self, spec, main, clock=time.perf_counter):
        self.main = main
        self.clock = clock
        self.out = spec["out_path"]
        self.argv = spec["argv"]
        self.log = OutputLog(spec["keep_dir"])

    def run(self, i: int, tracer: Tracer | None = None) -> float:
        """One request on case i; returns its wall time in seconds."""
        with open(self.out, "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            if tracer is None:
                t0 = self.clock()
                rc = self.main(self.argv[i])
                dt = self.clock() - t0
            else:
                rc, dt = tracer.request_span(self.main, self.argv[i])
        self.log.add(i, rc, self.out)
        return dt


def heap_peak_mib(req: Requests) -> float:
    tracemalloc.start()
    try:
        req.run(0)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def serve(spec) -> dict:
    import lcprof.cli

    result = {"rss_base_mib": peak_rss_mib()}
    req = Requests(spec, lcprof.cli.main)
    cases = len(req.argv)
    tracer = Tracer() if spec["trace"] else None
    if spec["mode"] == "verify":
        if tracer is None:
            result["latencies"] = [req.run(0)]
        else:
            with tracer.installed():
                result["latencies"] = [req.run(0, tracer)]
            result["layers"] = tracer.layer_metrics()
    elif tracer is None:
        req.run(0)                      # warm-up: checked, not timed
        with measure.Sampler() as sampler:
            req.clock = sampler.clock
            timed = until(spec["seconds"], lambda k: (req.run(k % cases),))
        result["latencies"] = [t for t, in timed]
        result["kernel_s"] = sampler.samples
    else:
        req.run(0)

        def pair(k):
            plain = req.run(k % cases)
            with tracer.installed():
                traced = req.run(k % cases, tracer)
            return plain + traced, plain, traced

        timed = until(spec["seconds"], pair)
        result["latencies"] = [p for _, p, _ in timed]
        result["traced_latencies"] = [t for _, _, t in timed]
        result["layers"] = tracer.layer_metrics()
        result["heap_peak_mib"] = heap_peak_mib(req)
    result["peak_rss_mib"] = peak_rss_mib()
    if tracer is not None:
        tracer.write_spans(spec["spans_path"])
    result.update(req.log.as_dict())
    return result


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    result = serve(spec)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
