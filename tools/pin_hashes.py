"""Print the fresh sha256 of every pinned output, and whether it matches.

The pins are the hash lists of tests/test_cli.py (TABLE_SHA256,
JSON_SHA256, TEXT_SHA256: full stdout of one lcprof command) and of
tests/test_verify.py (DRAW_SHA256: the terms a seeded verify suite
draws).  They are read from the test files' source, so the tool needs
the standard library and lcprof's source tree, not pytest.  It writes
no test file: an intended output change edits a hash by hand and says
so in CHANGES.md.

    python tools/pin_hashes.py

prints one line per case, "ok" or "DIFF", its fresh hash and its name,
and exits 1 if any case differs from its pin.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lcprof import verify  # noqa: E402
from lcprof.cli import main  # noqa: E402


def _pins(path: Path) -> dict[str, list]:
    """The module-level NAME_SHA256 lists of a test file, evaluated.

    An entry may spell a field as str(2**31 - 1), so each list is
    evaluated with str as its only builtin.
    """
    pins = {}
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.endswith("_SHA256")):
            code = compile(ast.Expression(node.value), str(path), "eval")
            pins[node.targets[0].id] = eval(code, {"__builtins__": {"str": str}})
    return pins


class _Sha256Writer:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)


def _stdout_sha256(argv, text=None) -> str:
    """sha256 of main(argv)'s stdout, text (if any) given as its --in file."""
    with tempfile.TemporaryDirectory() as tmp:
        if text is not None:
            path = Path(tmp) / "terms.txt"
            path.write_text(text, encoding="utf-8")
            argv = [*argv, "--in", str(path)]
        out = _Sha256Writer()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    return out.hash.hexdigest() if code == 0 else f"exit {code}"


def _draws_sha256(argv, name: str, at: int) -> str:
    """sha256 of the terms verify's global name receives (argument at)
    while `lcprof verify *argv` runs."""
    real = getattr(verify, name)
    seen = []

    def recording(*args, **kwargs):
        terms = args[at]
        seen.append(tuple(getattr(terms, "terms", terms)))
        return real(*args, **kwargs)

    setattr(verify, name, recording)
    try:
        _stdout_sha256(["verify", *argv])
    finally:
        setattr(verify, name, real)
    return hashlib.sha256(repr(seen).encode()).hexdigest()


def _cases():
    """(name, pinned hash, thunk giving the fresh hash) for every pin."""
    cli = _pins(ROOT / "tests" / "test_cli.py")
    for flags, field, n, seed, want in cli["TABLE_SHA256"]:
        rng = random.Random(seed)
        text = ",".join(str(rng.randrange(field)) for _ in range(n))
        yield (f"profile {' '.join(flags)} n={n}", want,
               lambda flags=flags, text=text: _stdout_sha256(["profile", *flags], text))
    for argv, field, lengths, seed, want in cli["JSON_SHA256"] + cli["TEXT_SHA256"]:
        text = None
        if lengths:
            rng = random.Random(seed)
            text = "".join(",".join(str(rng.randrange(field)) for _ in range(n)) + "\n"
                           for n in lengths)
        yield (f"{' '.join(argv)} n={lengths}", want,
               lambda argv=argv, text=text: _stdout_sha256(argv, text))
    for argv, name, at, want in _pins(ROOT / "tests" / "test_verify.py")["DRAW_SHA256"]:
        yield (f"draws of verify {' '.join(argv)} at {name}", want,
               lambda argv=argv, name=name, at=at: _draws_sha256(argv, name, at))


def run() -> int:
    differ = 0
    for name, want, fresh in _cases():
        got = fresh()
        differ += got != want
        print(f"{'ok  ' if got == want else 'DIFF'} {got}  {name}", flush=True)
    print(f"{differ} of the pinned cases differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(run())
