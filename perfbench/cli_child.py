"""`python -m lcprof ARGS`, measured from inside.

Usage: python3 perfbench/cli_child.py ARGS  (with PYTHONPATH at src/)

run.py starts each verify-all request this way.  It runs lcprof's
__main__ exactly as `-m` does, while measure.Sampler times the
host-speed kernel in this process.  At exit it writes one line to
stderr: `perfbench {"peak_rss_mib", "kernel_s", "kernel_spent_s"}`.
"""

import atexit
import json
import runpy
import sys

import measure


def report(sampler: measure.Sampler) -> None:
    sampler.__exit__()
    print("perfbench " + json.dumps({"peak_rss_mib": measure.peak_rss_mib(),
                                     "kernel_s": sampler.samples,
                                     "kernel_spent_s": sampler.spent}),
          file=sys.stderr)


if __name__ == "__main__":
    atexit.register(report, measure.Sampler().__enter__())
    runpy.run_module("lcprof", run_name="__main__", alter_sys=True)
