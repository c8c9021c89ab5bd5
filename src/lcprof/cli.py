"""Batch command-line front end.

Subcommands: profile, minpoly, plcp-check, plcp-count, plcp-enum,
stable, height, lcsum, rueppel, gamma, verify.  Sequences come from
--seq (ASCII digits separated by commas or whitespace, one field per
comma, so an empty field is an error) or --in (one sequence per line);
digits must already lie in [0, p), out-of-range values are rejected
rather than reduced, and so is an --epsilon outside [0, p).
--json swaps the table output for one JSON object per input sequence
(per suite for verify), with the bytes of json.dumps but each long list
written in chunks, so no report's list is ever one string.  profile
--json (engine.profile_json) writes lc and exponents as they are
derived from the discrepancies and never holds either list, and
plcp-enum writes its sequences as the prefix walk yields them, text or
JSON, and never holds the list.  Each subcommand takes only the flags
it reads: all but stable (always over F_2), rueppel and gamma take
--field, and only profile, minpoly and plcp-check take --epsilon.
verify takes its defaults from verify.SUITES, and a single suite
refuses a --max-n, --field or --trials it does not read.

Exit codes: 0 success, 2 input/usage error, 3 a failed verify suite (or
an engine error that no input is known to reach), 4 resource guard
tripped.  Past argparse a refusal is an exception, and main alone turns
it into one "error: ..." line and its exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import re
import sys
from collections.abc import Iterator
from itertools import islice

from . import verify as verify_mod
from .analysis import (
    analysis_report,
    enumerate_plcp,
    height,
    is_stable,
    lc_sum,
    plcp_count,
)
from .engine import (
    MPConfig,
    feedback_polynomial,
    mp_run,
    profile_json,
    profile_text_rows,
)
from .errors import (
    LcprofError,
    ResourceLimitError,
    SequenceParseError,
)
from .fields import PrimeField
from .poly import Seq
from .rueppel import gamma, rueppel_terms

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FAIL = 3
EXIT_RESOURCE = 4

# one field per comma: an empty field between two commas stays a token
_FIELD_SPLIT = re.compile(r"\s*,\s*|\s+")
_COMMA_TEXT = re.compile(r"[0-9,]*")
_NEGATIVE = re.compile(r"-[0-9]+")

def parse_sequence(text: str, dom: PrimeField) -> Seq:
    """Strict parse: ASCII-digit tokens in [0, p) of the field dom; no wrapping.

    One field per comma, or per run of whitespace that borders no comma;
    an empty field ('1,,0', '1, ,0', ',1') is an error, not a gap.  Every
    token is checked for ASCII digits, since int() alone also takes signs,
    underscores and non-ASCII digits ('+1', '1_0', Arabic-Indic digits).
    """
    p = dom.p
    text = text.strip()
    if not text:
        return Seq(dom, ())
    tokens = text.split(",") if _COMMA_TEXT.fullmatch(text) else _FIELD_SPLIT.split(text)

    def terms():
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                if _NEGATIVE.fullmatch(tok):
                    raise SequenceParseError(f"value {tok} outside [0, {p})")
                raise SequenceParseError(f"not an integer: {tok!r}")
            try:
                v = int(tok)
            except ValueError:  # more digits than int() converts
                raise SequenceParseError(f"not an integer: {tok!r}") from None
            if v >= p:
                raise SequenceParseError(f"value {v} outside [0, {p})")
            yield v

    # the terms go straight into the one tuple the engine reads, with
    # every term checked in [0, p)
    return Seq._canonical(dom, tuple(terms()))


def _input_sequences(args) -> list[Seq]:
    if args.seq is not None and args.infile is not None:
        raise SequenceParseError("give either --seq or --in, not both")
    if args.seq is not None:
        lines = [args.seq]
    elif args.infile is not None:
        with open(args.infile, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        raise SequenceParseError("no sequence given (use --seq or --in)")
    dom = PrimeField(getattr(args, "field", 2))  # checked once; stable reads no --field
    # profile, minpoly and plcp-check seed with --epsilon: a field element,
    # held to [0, p) like the terms rather than reduced
    eps = getattr(args, "epsilon", 0)
    if not 0 <= eps < dom.p:
        raise SequenceParseError(f"--epsilon value {eps} outside [0, {dom.p})")
    return [parse_sequence(line, dom) for line in lines]


# List items that one json.dumps call encodes: json.dumps keeps one str
# per item until its final join, so a long list is written in chunks.
_CHUNK = 4096


def _write_list(items) -> None:
    """Write json.dumps(list(items)), encoding _CHUNK items at a time.

    Nothing is written before the first chunk is drawn, so a generator
    that refuses at its first item leaves stdout empty.
    """
    items = iter(items)
    out = sys.stdout
    out.write("[" + json.dumps(list(islice(items, _CHUNK)))[1:-1])
    while chunk := list(islice(items, _CHUNK)):
        out.write(", " + json.dumps(chunk)[1:-1])
    out.write("]")


def _emit(obj: dict) -> None:
    """Print json.dumps(obj) for a report dict of str keys, written key by
    key, each list value through _write_list; an iterator value is
    written as the list it yields, drawn as it is written."""
    out = sys.stdout
    out.write("{")
    for i, (key, value) in enumerate(obj.items()):
        out.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if isinstance(value, (list, Iterator)):
            _write_list(value)
        else:
            out.write(json.dumps(value))
    out.write("}\n")


_TABLE_HEADERS = ("j", "Delta_j", "e_{j-1}", "mu^(j)", "mu'^(j)")
# Terms of a table over F_2..F_7.  The table text grows as n^2 times the
# printed width w of a coefficient, so a table of n terms is refused when
# n^2 * w > TABLE_GUARD^2.
TABLE_GUARD = 2**14


def profile_table_lines(s: Seq, config: MPConfig):
    """Lines of the per-step table, made one at a time.

    The columns are j, Delta_j, e_{j-1}, mu^(j), mu'^(j).  Row j lists
    the discrepancy consumed at step j (the conventional 1 at j = 0) and
    the exponent reached after the step (blank at j = 0).  Every cell but
    the last is padded to its column's width; the last, a mu' text or its
    header, never ends in whitespace, so no line does.
    """
    table = [_TABLE_HEADERS] + [
        (str(j), str(delta), str(e) if j else "", mu, mup)
        for j, delta, e, mu, mup in profile_text_rows(s, config)
    ]
    *widths, _ = [max(map(len, column)) for column in zip(*table)]
    for row in table:
        yield "  ".join([*map(str.ljust, row, widths), row[-1]])


def render_profile_table(s: Seq, config: MPConfig) -> str:
    """The per-step table (see profile_table_lines) as one string."""
    return "\n".join(profile_table_lines(s, config))


def cmd_profile(args) -> int:
    config = MPConfig(epsilon=args.epsilon)
    seqs = _input_sequences(args)
    longest = max(map(len, seqs), default=0)
    width = len(str(args.field - 1))
    if not args.json and longest * longest * width > TABLE_GUARD**2:
        raise ResourceLimitError(
            f"a table of {longest} terms over F_{args.field} exceeds the size "
            f"guard of {TABLE_GUARD} terms at one digit per coefficient; use --json")
    for s in seqs:
        if args.json:
            _emit(profile_json(s, config))
        else:
            for line in profile_table_lines(s, config):
                print(line)
    return EXIT_OK


def cmd_minpoly(args) -> int:
    config = MPConfig(epsilon=args.epsilon)
    for s in _input_sequences(args):
        _, rep = mp_run(s, config)
        fb, lc = feedback_polynomial(rep)
        if args.json:
            _emit({"mu": str(rep.minpoly), "lc": lc, "feedback": str(fb),
                   "nabla": rep.nabla})
        else:
            print(f"mu = {rep.minpoly}")
            print(f"lc = {lc}")
            print(f"feedback = {fb}")
            print(f"nabla = {rep.nabla}")
    return EXIT_OK


def cmd_plcp_check(args) -> int:
    for s in _input_sequences(args):
        report = analysis_report(s, epsilon=args.epsilon)
        if args.json:
            _emit(report)
        else:
            print(f"plcp = {str(report['plcp']).lower()}")
            for key, val in report["witnesses"].items():
                if key != "failures":
                    print(f"witness {key} = {str(val).lower()}")
    return EXIT_OK


def cmd_plcp_count(args) -> int:
    count = plcp_count(args.field, args.n)
    _emit({"count": count}) if args.json else print(count)
    return EXIT_OK


def cmd_plcp_enum(args) -> int:
    # written as the walk yields; its guard refuses at the first item,
    # before a byte is written
    seqs = (s.terms for s in enumerate_plcp(args.field, args.n))
    if args.json:
        _write_list(seqs)
        print()
    else:
        for terms in seqs:
            print(",".join(map(str, terms)))
    return EXIT_OK


def cmd_stable(args) -> int:
    for s in _input_sequences(args):
        flag = is_stable(s)
        _emit({"stable": flag}) if args.json else print(str(flag).lower())
    return EXIT_OK


def cmd_height(args) -> int:
    for s in _input_sequences(args):
        rep = height(s)
        if args.json:
            _emit({"height": rep.height, "argmax_j": rep.argmax_j,
                   "exponents": rep.exponents})
        else:
            print(f"height = {rep.height}")
            print(f"argmax_j = {rep.argmax_j}")
    return EXIT_OK


def cmd_lcsum(args) -> int:
    for s in _input_sequences(args):
        sigma, bound = lc_sum(s)
        if args.json:
            _emit({"lc_sum": sigma, "bound": bound})
        else:
            print(f"lc_sum = {sigma}")
            print(f"bound = {bound}")
    return EXIT_OK


def cmd_rueppel(args) -> int:
    # the sequence's own tuple, _CHUNK terms at a time: a list copy or one
    # join over the guard's 2^22 terms would hold a new object per term
    terms = iter(rueppel_terms(args.n).terms)
    if args.json:
        _emit({"terms": terms})
    else:
        out = sys.stdout
        out.write(",".join(map(str, islice(terms, _CHUNK))))
        while chunk := ",".join(map(str, islice(terms, _CHUNK))):
            out.write("," + chunk)
        out.write("\n")
    return EXIT_OK


def cmd_gamma(args) -> int:
    g = gamma(args.n)
    _emit({"gamma": str(g)}) if args.json else print(g)
    return EXIT_OK


def cmd_verify(args) -> int:
    suites = verify_mod.SUITES
    name = args.suite
    if name != "all" and name not in suites:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(sorted(suites))} or all")
    # each flag's dest and Suite field, in the order an unread one is named
    flags = {"--max-n": "max_n", "--field": "field", "--trials": "trials"}
    if name != "all":
        for flag, key in flags.items():
            if getattr(args, key) is not None and getattr(suites[name], key) is None:
                raise ValueError(f"verify {name} does not read {flag}")
    all_ok = True
    for suite in suites.values() if name == "all" else [suites[name]]:
        n, q, t = (getattr(suite, key) if getattr(args, key) is None
                   else getattr(args, key) for key in flags.values())
        result = suite.run(n, t, q)
        _emit(dataclasses.asdict(result)) if args.json else print(result.line())
        all_ok &= result.ok
    return EXIT_OK if all_ok else EXIT_FAIL


def _size(text: str) -> int:
    """A --max-n or --trials value: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept: set_defaults binds each
    cmd_* then, so a cmd_* patched on this module later never runs."""
    parser = argparse.ArgumentParser(
        prog="lcprof",
        description="Minimal polynomials and linear-complexity profiles "
                    "over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, seq=False, n_arg=False, field=True, epsilon=False):
        p = sub.add_parser(name, help=help_)
        if field:
            p.add_argument("--field", type=int, default=2, metavar="P",
                           help="field characteristic (prime, default 2)")
        if epsilon:
            p.add_argument("--epsilon", type=int, default=0, metavar="E",
                           help="seed element for the displaced row (default 0)")
        p.add_argument("--json", action="store_true", help="JSON output")
        if seq:
            p.add_argument("--seq", help="inline sequence, comma or space separated")
            p.add_argument("--in", dest="infile", help="file with one sequence per line")
        if n_arg:
            p.add_argument("--n", type=int, required=True, help="size parameter")
        p.set_defaults(func=fn)
        return p

    add("profile", cmd_profile, "per-step profile table or report", seq=True,
        epsilon=True)
    add("minpoly", cmd_minpoly, "minimal polynomial and feedback polynomial",
        seq=True, epsilon=True)
    add("plcp-check", cmd_plcp_check, "perfect-profile analysis", seq=True,
        epsilon=True)
    add("plcp-count", cmd_plcp_count, "closed-form perfect-profile count",
        n_arg=True)
    add("plcp-enum", cmd_plcp_enum, "enumerate perfect-profile sequences",
        n_arg=True)
    add("stable", cmd_stable, "binary stability check", seq=True, field=False)
    add("height", cmd_height, "sequence height", seq=True)
    add("lcsum", cmd_lcsum, "sum of the complexity profile", seq=True)
    add("rueppel", cmd_rueppel, "power-of-two indicator sequence terms",
        n_arg=True, field=False)
    add("gamma", cmd_gamma, "member of the jump-matrix polynomial family",
        n_arg=True, field=False)

    v = add("verify", cmd_verify, "run a verification suite")
    v.add_argument("suite", nargs="?", default="all", metavar="SUITE",
                   help="suite name or all (default all)")
    v.add_argument("--max-n", dest="max_n", type=_size, default=None)
    v.add_argument("--trials", type=_size, default=None)
    v.set_defaults(field=None)  # each suite's own default (verify.SUITES)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (SequenceParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LcprofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
