"""The benchmark's workloads and the inputs it generates for them.

Why each workload exists is recorded in NOTES.md.  Inputs depend only
on the workload name and the seed; the program sees nothing but the
generated files.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Profile:
    """`lcprof profile --field p --in FILE`, one random sequence per request."""

    field: int
    n: int
    json: bool
    distinct_inputs: int

    def argv(self, path: str) -> list[str]:
        mode = ["--json"] if self.json else []
        return ["profile", *mode, "--field", str(self.field), "--in", path]


@dataclass(frozen=True)
class VerifyAll:
    """`python -m lcprof verify all` at CLI defaults, a fresh process each."""

    argv = ("verify", "all")


WORKLOADS = {
    "f2-json": Profile(field=2, n=1 << 15, json=True, distinct_inputs=8),
    "p65521-json": Profile(field=65521, n=1024, json=True, distinct_inputs=8),
    "f3-table": Profile(field=3, n=2048, json=False, distinct_inputs=4),
    "verify-all": VerifyAll(),
}


def make_inputs(name: str, seed: int) -> list[list[int]]:
    """The workload's input sequences for this seed (same seed, same inputs)."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return [[rng.randrange(spec.field) for _ in range(spec.n)]
            for _ in range(spec.distinct_inputs)]


def write_inputs(seqs: list[list[int]], directory: str) -> list[str]:
    """One file per sequence, in the one-sequence-per-line `--in` format."""
    paths = []
    for i, terms in enumerate(seqs):
        path = os.path.join(directory, f"input-{i}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(map(str, terms)) + "\n")
        paths.append(path)
    return paths


def inputs_digest(name: str, paths: list[str]) -> str:
    """sha256 over the workload name and every input file, in order."""
    h = hashlib.sha256(name.encode())
    if isinstance(WORKLOADS[name], VerifyAll):
        h.update(" ".join(VerifyAll.argv).encode())
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()

