"""Command-line behavior: parsing, exit codes, output formats."""

import contextlib
import hashlib
import importlib
import json
import pkgutil
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lcprof
from lcprof import analysis, cli, engine, fields, rueppel
from lcprof import verify as verify_mod
from lcprof.cli import (
    TABLE_GUARD,
    main,
    parse_sequence,
    profile_table_lines,
    render_profile_table,
)
from lcprof.engine import MPConfig, profile_steps
from lcprof.errors import SequenceParseError, UnsupportedDomainError
from lcprof.fields import GF2, PrimeField
from ring_reference import report_json_dict

R6_TABLE = """\
j  Delta_j  e_{j-1}  mu^(j)     mu'^(j)
0  1                 1          0
1  1        0        x          1
2  1        1        x+1        1
3  1        0        x^2+x+1    x+1
4  0        1        x^2+x+1    x+1
5  1        0        x^3+x^2+1  x^2+x+1
6  0        1        x^3+x^2+1  x^2+x+1"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -------------------------------------------------------------- parsing

def test_parse_sequence_ok():
    assert list(parse_sequence("1,1,0,1,0,0", GF2)) == [1, 1, 0, 1, 0, 0]
    assert list(parse_sequence("1 2 0", PrimeField(3))) == [1, 2, 0]
    assert len(parse_sequence("", GF2)) == 0


def test_parse_sequence_rejects():
    with pytest.raises(SequenceParseError):
        parse_sequence("2,1", GF2)  # strict: no wrapping
    with pytest.raises(SequenceParseError):
        parse_sequence("1,x", GF2)
    with pytest.raises(SequenceParseError, match=r"^value -1 outside \[0, 3\)$"):
        parse_sequence("-1", PrimeField(3))
    for text in (",1", "1,,0", "1, ,0"):  # a stray comma, an empty field
        with pytest.raises(SequenceParseError, match=r"^not an integer: ''$"):
            parse_sequence(text, GF2)
    # int() would take each of these: an underscore, a non-ASCII digit, a sign
    for text, bad in (("1_0", "1_0"), ("\u0661,1", "\u0661"), ("+1,0", "+1"),
                      ("1 0,+1", "+1")):
        with pytest.raises(SequenceParseError) as info:
            parse_sequence(text, PrimeField(13))
        assert str(info.value) == f"not an integer: {bad!r}"


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "profile", "--field", "2", "--seq", "2,1")
    assert code == 2 and "outside" in err
    code, _, _ = run(capsys, "profile", "--field", "2", "--seq", "1,spam")
    assert code == 2
    code, _, _ = run(capsys, "minpoly")  # no sequence at all
    assert code == 2
    for seq in ("1_0", "\u0661,1", "+1,0"):  # terms int() would take
        code, out, err = run(capsys, "minpoly", "--field", "13", "--seq", seq)
        bad = seq.split(",")[0]
        assert (code, out, err) == (2, "", f"error: not an integer: {bad!r}\n")
    for seq in ("1,,0", "1, ,0"):  # an empty field between two commas
        code, out, err = run(capsys, "profile", "--seq", seq)
        assert (code, out, err) == (2, "", "error: not an integer: ''\n")


_LONG_TOKEN = "9" + "0" * 4999  # past int()'s default limit of 4300 digits
_LONG_ERROR = (f"not an integer: {_LONG_TOKEN!r}"
               if 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(_LONG_TOKEN)
               else f"value {_LONG_TOKEN} outside [0, {{p}})")
# fields that are not terms, with the error each gives over F_p
_NON_TERMS = (("", "not an integer: ''"), ("+1", "not an integer: '+1'"),
              ("1_0", "not an integer: '1_0'"), ("-3", "value -3 outside [0, {p})"),
              ("\u0663", "not an integer: '\u0663'"),  # Arabic-Indic three
              ("\uff13", "not an integer: '\uff13'"),  # fullwidth three
              (_LONG_TOKEN, _LONG_ERROR))
_BLANKS = " \t\n\x1c\u2028\u3000"  # ASCII and Unicode whitespace
_SPACE = st.text(_BLANKS, max_size=3)
_READER_FIELDS = {p: PrimeField(p) for p in (2, 3, 13, 65521, 2**31 - 1)}


@st.composite
def _reader_line(draw):
    """A line built field by field, its prime p, and its terms or first error."""
    p = draw(st.sampled_from(sorted(_READER_FIELDS)))
    term = st.tuples(st.integers(0, 2 * p), st.integers(0, 2)).map(
        lambda vz: ("0" * vz[1] + str(vz[0]),
                    vz[0] if vz[0] < p else f"value {vz[0]} outside [0, {p})"))
    non_term = st.sampled_from(_NON_TERMS).map(lambda f: (f[0], f[1].format(p=p)))
    fields = draw(st.lists(st.one_of(term, term, non_term), min_size=1, max_size=12))
    line = draw(_SPACE) + fields[0][0]
    for (left, _), (right, _) in zip(fields, fields[1:]):
        # a run of whitespace is one boundary, so an empty field needs a
        # comma between it and each neighbour
        if left and right and draw(st.booleans()):
            line += draw(st.text(_BLANKS, min_size=1, max_size=3))
        else:
            line += draw(_SPACE) + "," + draw(_SPACE)
        line += right
    line += draw(_SPACE)
    if len(fields) == 1 and not fields[0][0]:
        return line, p, []  # a blank line holds no field
    errors = [want for _, want in fields if isinstance(want, str)]
    return line, p, errors[0] if errors else [want for _, want in fields]


@settings(max_examples=400, deadline=None)
@given(_reader_line())
def test_parse_sequence_matches_a_field_oracle(case):
    line, p, want = case
    if isinstance(want, str):
        with pytest.raises(SequenceParseError) as info:
            parse_sequence(line, _READER_FIELDS[p])
        assert str(info.value) == want
    else:
        assert list(parse_sequence(line, _READER_FIELDS[p])) == want


def test_usage_error_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_nonprime_field_exit_2(capsys):
    code, _, err = run(capsys, "profile", "--field", "4", "--seq", "1")
    assert code == 2 and "prime" in err


def test_empty_sequence_profile(capsys):
    code, out, _ = run(capsys, "profile", "--seq", "")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert len(lines) == 2 and lines[1].startswith("0  1")


# -------------------------------------------------------------- profile

def test_profile_table_bytes(capsys):
    code, out, _ = run(capsys, "profile", "--field", "2", "--seq", "1,1,0,1,0,0")
    assert code == 0
    assert out == R6_TABLE + "\n"


def test_profile_json_round_trip(capsys):
    code, out, _ = run(capsys, "profile", "--field", "2", "--seq", "1,1,0,1,0,0",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["mu"] == "x^3+x^2+1" and data["mu_prime"] == "x^2+x+1"
    assert data["deltas"] == [1, 1, 1, 0, 1, 0]
    rep = engine.mp_run(GF2.seq([1, 1, 0, 1, 0, 0]))[1]
    assert json.dumps(report_json_dict(rep)) == out.strip()


def test_profile_file_input(tmp_path, capsys):
    path = tmp_path / "seqs.txt"
    path.write_text("1,1,1\n0 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "profile", "--in", str(path), "--json")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    assert json.loads(lines[0])["lc"] == [1, 1, 1]
    assert json.loads(lines[1])["lc"] == [0, 0]


def _reference_table(s, config):
    """The table rebuilt from profile_steps rows through str()."""
    headers = ["j", "Delta_j", "e_{j-1}", "mu^(j)", "mu'^(j)"]
    rows = [headers] + [
        [str(r.j), str(r.delta), "" if r.j == 0 else str(r.e), str(r.mu),
         str(r.mu_prev)]
        for r in profile_steps(s, config)
    ]
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
        for row in rows)


def _table_cases():
    for p, top in ((2, 10), (3, 6)):
        for n in range(top + 1):
            for terms in product(range(p), repeat=n):
                yield PrimeField(p).seq(terms)
    rng = random.Random(0x7AB1E)
    # F_11 is the largest field with one-byte row slots and a term-text
    # table, F_13 the first past that bound
    for p in (5, 65521, 7, 11, 13):
        for n in (0, 1, 2, 7, 30, 99, 200):
            yield PrimeField(p).seq([rng.randrange(p) for _ in range(n)])
    yield PrimeField(3).seq([rng.randrange(3) for _ in range(600)])


def test_profile_table_matches_reference():
    for s in _table_cases():
        p = s.domain.p
        for eps in sorted({0, 1, p - 1}):
            config = MPConfig(epsilon=eps)
            want = _reference_table(s, config)
            assert "\n".join(profile_table_lines(s, config)) == want
            assert render_profile_table(s, config) == want


def test_profile_table_file_of_several_sequences(tmp_path, capsys):
    dom = PrimeField(5)
    rng = random.Random(5)
    seqs = [dom.seq([rng.randrange(5) for _ in range(n)]) for n in (12, 0, 40, 3)]
    path = tmp_path / "seqs.txt"
    path.write_text("".join(",".join(map(str, s.terms)) + "\n" for s in seqs),
                    encoding="utf-8")
    code, out, _ = run(capsys, "profile", "--field", "5", "--epsilon", "4",
                       "--in", str(path))
    assert code == 0
    config = MPConfig(epsilon=4)
    assert out == "".join(_reference_table(s, config) + "\n" for s in seqs)


def test_profile_table_streams(tmp_path):
    rng = random.Random(1024)
    path = tmp_path / "f3.txt"
    path.write_text(",".join(str(rng.randrange(3)) for _ in range(1024)),
                    encoding="utf-8")
    out_path = tmp_path / "out.txt"
    with open(out_path, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(["profile", "--field", "3", "--in", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    size = out_path.stat().st_size
    assert size > 3 * 2**20
    assert peak < size / 2


def _traced_peak(tmp_path, argv):
    """main(argv)'s tracemalloc peak and output size, stdout to a file."""
    out_path = tmp_path / "out.txt"
    with open(out_path, "w", encoding="utf-8") as out:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    return peak, out_path.stat().st_size


def test_profile_json_writes_its_lists_in_chunks(tmp_path):
    rng = random.Random(2**15)
    path = tmp_path / "f2.txt"
    path.write_text(",".join(str(rng.randrange(2)) for _ in range(2**15)),
                    encoding="utf-8")
    peak, size = _traced_peak(tmp_path, ["profile", "--json", "--in", str(path)])
    assert size > 0.7 * 2**20
    assert peak < 6 * size  # a str held per item of each whole list reads 9.7x


def test_profile_json_holds_only_the_terms_and_the_deltas_per_term(tmp_path):
    # lc and exponents are written as they are derived from the deltas,
    # and the matrix texts come from the core's rows a slice at a time;
    # holding lc, exponents and Poly rows as well reads 3.71x
    rng = random.Random(2**15 + 1)
    path = tmp_path / "f2.txt"
    path.write_text(",".join(str(rng.randrange(2)) for _ in range(2**15)),
                    encoding="utf-8")
    peak, size = _traced_peak(tmp_path, ["profile", "--json", "--field", "2",
                                         "--in", str(path)])
    assert size > 0.7 * 2**20
    assert peak < 2.5 * size


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_profile_json_stream_equals_the_report(tmp_path, capsys, p):
    # 5000 terms pass one _CHUNK of a list and one render slice of a row
    rng = random.Random(p)
    seqs = [PrimeField(p).seq([rng.randrange(p) for _ in range(n)])
            for n in (0, 1, 7, 300, 5000)]
    path = tmp_path / "terms.txt"
    path.write_text("".join(",".join(map(str, s.terms)) + "\n" for s in seqs),
                    encoding="utf-8")
    for eps in sorted({0, p - 1}):
        code, out, _ = run(capsys, "profile", "--json", "--field", str(p),
                           "--epsilon", str(eps), "--in", str(path))
        assert code == 0
        config = MPConfig(epsilon=eps)
        assert out.splitlines() == [
            json.dumps(report_json_dict(engine.mp_run(s, config)[1])) for s in seqs]


@pytest.mark.parametrize("json_flag, bound", [((), 0.25), (("--json",), 4)])
def test_plcp_enum_streams(tmp_path, json_flag, bound):
    peak, size = _traced_peak(tmp_path, ["plcp-enum", "--field", "3", "--n", "12",
                                         *json_flag])
    assert size > 2**20
    assert peak < bound * size  # every sequence held at once reads 7x


# The full stdout sha256 of every --json output, and of plcp-enum's and
# verify all's text: (argv, field, line lengths, seed), each line of the
# --in file being that many draws of random.Random(seed).randrange(field);
# no lengths, no --in.  The 9001-term F_2 lists and the 7776 sequences of
# F_3^10 are written in several chunks; the F_5 to F_(2^31-1) profiles of
# 1500 terms and more run blocked, in slots of up to 9 bytes, and those of
# 8192 terms through several levels of the block's recursion.  Each case
# that differs fails and prints its fresh hash (`pytest -k pinned` runs
# every pin); an intended change of these bytes edits that hash here and
# says so in CHANGES.md.
JSON_SHA256 = [
    (("profile", "--json", "--field", "2"), 2, (9001,), 11,
     "70276eea5e07fe4cff57485c57ff838ba1b16f2cec550617bb229f0fc48bda29"),
    (("profile", "--json", "--field", "2", "--epsilon", "1"), 2, (9001,), 12,
     "70137e7449df575d419a65df53e6e16e5a6aa83b99c1b6766feca7e27ceb2641"),
    (("profile", "--json", "--field", "3"), 3, (2001,), 13,
     "6a84de9d1b6cf3e60575bed63af2c03c22f46c0eff68ba10f3fb178c288f3ba9"),
    (("profile", "--json", "--field", "65521"), 65521, (1024,), 14,
     "5e9f4a65e8c446ba88ba5f730e998e327e64cf64997be1ec2dc2973baf1402f9"),
    (("profile", "--json", "--field", str(2**31 - 1)), 2**31 - 1, (300,), 15,
     "e6326e0d81c81a583c0e7ad8a14c20414f1de01d7bd00a341a8a9ec780638b7b"),
    (("profile", "--json"), 2, (0,), 16,  # the empty sequence
     "1cb87a21699b232447853cae1c9c308c2e5ae133236f03cbfe08b42b94fb3ba6"),
    (("profile", "--json", "--field", "5", "--epsilon", "3"), 5, (40, 17), 17,
     "b65656d4d8f1260bffb98bfbb50a784b9b08c4107b44c424ec69ada43c4a5f3b"),
    (("plcp-enum", "--json", "--field", "3", "--n", "10"), None, (), None,
     "aeee0c5d55cc8c3ee1829a387fc103bd8f14afcef70cad1ac0828bb21e07a8c3"),
    (("plcp-enum", "--field", "3", "--n", "10"), None, (), None,
     "ccc51adf63ad70bec24532cbecdd8a05859a3ac604374543291e74207db7b45a"),
    (("rueppel", "--json", "--n", "10000"), None, (), None,
     "1b4f19d19814f66a6104dac7d5da08a9c1474aad31a3c279469f1a410c3acc74"),
    (("height", "--json"), 2, (200,), 18,
     "d9ba09e173d50d9c2b6f028b160c1ad44d8e66589fcd738bc202a4667377dfe8"),
    (("lcsum", "--json", "--field", "3"), 3, (500,), 19,
     "f2715e4f9d6d1298e35821476868e6671a38ba2415999ecf2cfe4c2efda3c202"),
    (("minpoly", "--json", "--field", "7"), 7, (300,), 20,
     "f2a6c6a862ccb8f72e1ebc17d410a06e9bfedf2cc86056270ce4c84784955a2a"),
    (("plcp-check", "--json", "--field", "3"), 3, (60,), 21,
     "06ba0965463dd0baaa3108da9c8d01c361d6b697adf4ce4207fe5032a6d6913a"),
    (("stable", "--json"), 2, (64,), 22,
     "d6c69bb440e7a3968e676fe8715a37fa0029041592f151afbf1ae1fd3d0388cd"),
    (("gamma", "--json", "--n", "1000"), None, (), None,
     "e2b789bed223ad74a195649fd377dd8ecec8a3b41f21e412d8865f60a5e9ae42"),
    (("plcp-count", "--json", "--field", "5", "--n", "40"), None, (), None,
     "8d70c80abdfd6eb39c92c21e6579dc67598f36a014a3726e45a5ab39db448757"),
    (("verify", "bezout", "--json"), None, (), None,
     "e65d33af97b64663f06e6f69feacc766cb0303546db2caa2a2af15458b40360d"),
    (("verify", "all"), None, (), None,
     "9c9d746a27a22ed8ef50cbc679635ebed315590d656903a547129d032f83ba00"),
    (("verify", "all", "--json"), None, (), None,
     "30ec0fc891263f11eba3db886c8e0ecf91b8a0bb3441d04e9a93559df40929e5"),
    (("verify", "all", "--field", "3", "--max-n", "6", "--trials", "20"), None, (), None,
     "46a323a56401d163aab12ea05b45c34dc7db58b8c6761324ca17fec22f49cfa3"),
    (("verify", "all", "--field", "5", "--max-n", "6", "--trials", "20"), None, (), None,
     "738defde8ec6bcb884f8131d1dc3dc3ffcb9a79a922c2eed20d479ecb4a02624"),
    (("profile", "--json", "--field", "5"), 5, (4096,), 18,
     "2e5fc6b685a22d7e2fb213590c3fe8fb17944eb08b2e7d62e5f6f23ff8dc95d7"),
    (("profile", "--json", "--field", "11"), 11, (2048,), 19,
     "37007614d5cb8692fc6f9ec786b2653c3c366b6250e438cee31c93216231df0d"),
    (("profile", "--json", "--field", str(2**31 - 1)), 2**31 - 1, (1500,), 20,
     "0c4d43c112f49bcc0317bf5bf02e7be399769e6f84dca5af44ab941170f77e1b"),
    (("profile", "--json", "--field", "65521"), 65521, (4096,), 21,
     "f10fb71eff81701603f365e3eb8016c49dcbb113dcda9cd5b46930ff8303b000"),
    (("profile", "--json", "--field", "65521"), 65521, (8192,), 23,
     "d66d07d96206906fedfd3e5d9cb1e18b62ee6337e77686b14d07c6ac34eeffe4"),
    (("profile", "--json", "--field", "5"), 5, (8192,), 24,
     "166b58d8a6e97a5e3d710bfca0e1e56254ba1f9a450018c8f0b2d77a9df78e15"),
    (("minpoly", "--json", "--field", "7"), 7, (3000,), 22,
     "77aefb601d56a6c9c71aac39ac83512b080d2a068e4e6040b68f484de6413d7a"),
]


# The full stdout sha256 of the text outputs, in JSON_SHA256's shape and
# re-pinned the same way: the table-free subcommands on the JSON pins'
# inputs, the single verify suites, seeded ones at their defaults and
# with every flag they read, and the profile tables, one a row
# representation and renderer path.
TEXT_SHA256 = [
    (("minpoly", "--field", "7"), 7, (300,), 20,
     "331f20554983c97720385a54e7036155eb4bfbcf2ee9f4401408e154c066dc88"),
    (("plcp-check", "--field", "3"), 3, (60,), 21,
     "9219c4c13b0aa068ab3a2a08118922ab278c814f59571184b75177698bda0322"),
    (("stable",), 2, (64,), 22,
     "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    (("height",), 2, (200,), 18,
     "020cabd47a23082b8733378849b5c32dff31a628a80b129d93acb8e030ff8ca0"),
    (("lcsum", "--field", "3"), 3, (500,), 19,
     "4390ed3fa2696290ce566e6e6f15a70a033e956d4b05ec975d09d53c40d84d2c"),
    (("rueppel", "--n", "10000"), None, (), None,
     "5998d24c3e58d45c89964fdfe4c9a9222711966fb25bde76b0e997f3e46be548"),
    (("gamma", "--n", "1000"), None, (), None,
     "deb9f7e03b1369fda1f6861ef3ac1214e29bfbc87f7fede19432d0e464a2051f"),
    (("plcp-count", "--field", "5", "--n", "40"), None, (), None,
     "d841dacec1387820fae5515b1db23106a3df9200a7f8c40edd523a915d3d3d79"),
    (("verify", "oracle"), None, (), None,
     "18773440a05761d595721026476fc9c3d7ccd05d7c7fa32184baef41ccd7ad17"),
    (("verify", "oracle", "--field", "3", "--max-n", "6", "--trials", "20"), None, (), None,
     "06c148f2717cf9dd2a3a888d1802899dbb47a0c70d4e40319d1a769a339ba407"),
    (("verify", "bezout", "--field", "5", "--trials", "200"), None, (), None,
     "89e0584a4fea3cd6a90ecc217216ed3cee020b9ac572d6cd246b3bbd7f30437a"),
    (("verify", "height", "--trials", "50"), None, (), None,
     "406344115c55ba25f6f6b67da27ba13a1bfddb07596a7588e3fff5be4813bd2b"),
    (("verify", "lcsum", "--trials", "100"), None, (), None,
     "3dc7bf7149f88ee6b3b22eeb2a0d3ef64386b73202afebc27b83289140d5cf97"),
    (("profile", "--field", "2"), 2, (3001,), 1,
     "44a4af871f35705f1da72fe363760917ff42d5fbb96a236f930d9a01ba59ef94"),
    (("profile", "--field", "2", "--epsilon", "1"), 2, (3002,), 2,
     "12ed689f4d9ba6fb66ad682061f035c6c7b0e0870921a1ecc4a39754acc0b997"),
    (("profile", "--field", "3"), 3, (2048,), 3,
     "54b94ff64fac4827ce7c0a2641180f7bc2c08ba5fbaa254e58825f45407e643d"),
    (("profile", "--field", "3", "--epsilon", "2"), 3, (2001,), 4,
     "a679654595d7c8e2123ea97e110860e42a0f6f69fb3d20fdc84619b3e5544c84"),
    (("profile", "--field", "5", "--epsilon", "4"), 5, (1001,), 5,
     "14545b403f6f67bd00c15a65ad5ec0fbd298918d75ba9917639c652820c7dd8b"),
    (("profile", "--field", "11"), 11, (300,), 6,
     "b9440d88a100d48a6e68515ae171c8605108a5b72deba7e8a2a508e9be5210dc"),
    (("profile", "--field", "13"), 13, (200,), 7,
     "dd5af0e821098e07ea3951b0f6c54b014a1f4555a1bb91a1baff8d5928f77455"),
]


_JSON_ITEMS = [0, 1, -7, 2**70, True, False, None, 'say "hi"\\',
               "caf\u00e9 \u2028 \U0001f600", [1, [2, None]], [], {"k": [1]}]


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_chunked_json_equals_json_dumps(capsys, monkeypatch, chunk):
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk):
        for start in range(len(_JSON_ITEMS)):
            items = [_JSON_ITEMS[(start + i) % len(_JSON_ITEMS)] for i in range(n)]
            cli._write_list(iter(items))
            assert capsys.readouterr().out == json.dumps(items)
            obj = {"a": items, "b": 1, "c": items[::-1], "d": "x"}
            cli._emit(obj)
            assert capsys.readouterr().out == json.dumps(obj) + "\n"
    for obj in ({}, {"x": 1, "y": "z\u00e9", "n": None, "d": {"e": [1, 2, 3, 4]}}):
        cli._emit(obj)
        assert capsys.readouterr().out == json.dumps(obj) + "\n"


class _Sha256Writer:
    """A text stream that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.hash = hashlib.sha256()

    def write(self, text):
        self.hash.update(text.encode())
        return len(text)


# every stdout pin, the text outputs and the profile tables as well as the JSON
@pytest.mark.parametrize("argv, field, lengths, seed, want", JSON_SHA256 + TEXT_SHA256,
                         ids=[" ".join(c[0]) + f" n={c[2]}"
                              for c in JSON_SHA256 + TEXT_SHA256])
def test_json_bytes_are_pinned(tmp_path, argv, field, lengths, seed, want):
    if lengths:
        rng = random.Random(seed)
        path = tmp_path / "terms.txt"
        path.write_text("".join(",".join(str(rng.randrange(field)) for _ in range(n))
                                + "\n" for n in lengths), encoding="utf-8")
        argv = (*argv, "--in", str(path))
    out = _Sha256Writer()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert (code, out.hash.hexdigest()) == (0, want)


def test_table_guard_exit_4(tmp_path, capsys, monkeypatch):
    path = tmp_path / "long.txt"
    path.write_text("1," * TABLE_GUARD + "1\n", encoding="utf-8")

    def no_engine(*args):
        raise AssertionError("the engine ran past the table guard")

    with monkeypatch.context() as m:
        m.setattr(cli, "profile_text_rows", no_engine)
        code, out, err = run(capsys, "profile", "--in", str(path))
    assert code == 4 and out == "" and "--json" in err
    code, out, _ = run(capsys, "profile", "--in", str(path), "--json")
    assert code == 0 and json.loads(out)["lc"][-1] == 1


@pytest.mark.parametrize("field,n,refused", [
    (2, TABLE_GUARD, False),
    (3, TABLE_GUARD, False),
    (3, TABLE_GUARD + 1, True),
    (65521, 7327, False),
    (65521, 7328, True),
    (2**31 - 1, 5181, False),
    (2**31 - 1, 5182, True),
])
def test_table_guard_bounds_the_text_size(tmp_path, capsys, monkeypatch,
                                          field, n, refused):
    # n^2 times the digits of p - 1 may not pass TABLE_GUARD^2
    path = tmp_path / "long.txt"
    path.write_text("1," * (n - 1) + "1\n", encoding="utf-8")
    ran = []
    with monkeypatch.context() as m:
        m.setattr(cli, "profile_text_rows", lambda s, config: ran.append(len(s)) or ())
        code, out, err = run(capsys, "profile", "--field", str(field),
                             "--in", str(path))
    if refused:
        assert code == 4 and out == "" and "--json" in err and ran == []
    else:
        assert code == 0 and ran == [n]


def test_table_guard_leaves_json_to_large_fields(tmp_path, capsys):
    path = tmp_path / "long.txt"
    path.write_text("1," * 7327 + "1\n", encoding="utf-8")
    code, out, _ = run(capsys, "profile", "--field", "65521", "--in", str(path),
                       "--json")
    assert code == 0 and json.loads(out)["lc"][-1] == 1


@pytest.mark.parametrize("command", ["profile", "minpoly", "plcp-check",
                                     "height", "lcsum"])
def test_field_is_validated_once_per_command(tmp_path, capsys, monkeypatch,
                                             command):
    path = tmp_path / "seqs.txt"
    path.write_text("1,2,0\n2,2\n0,1,1,2\n1\n")
    real, calls = fields.is_prime, []
    monkeypatch.setattr(fields, "is_prime", lambda n: calls.append(n) or real(n))
    code, _, _ = run(capsys, command, "--field", "3", "--in", str(path))
    assert code == 0 and calls == [3]


def test_profile_rejects_both_sources(tmp_path, capsys):
    path = tmp_path / "x.txt"
    path.write_text("1\n", encoding="utf-8")
    code, _, err = run(capsys, "profile", "--seq", "1", "--in", str(path))
    assert code == 2 and "not both" in err


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, "profile", "--in", str(tmp_path / "nope.txt"))
    assert code == 2 and "nope.txt" in err


# ------------------------------------------------------- other commands

def test_minpoly_output(capsys):
    code, out, _ = run(capsys, "minpoly", "--seq", "1,1,0,1,0,0")
    assert code == 0
    assert out == "mu = x^3+x^2+1\nlc = 3\nfeedback = x^3+x+1\nnabla = 1\n"


def test_minpoly_json_f3(capsys):
    code, out, _ = run(capsys, "minpoly", "--field", "3", "--seq", "1,2,0,1",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"mu", "lc", "feedback", "nabla"}


def test_plcp_check(capsys):
    code, out, _ = run(capsys, "plcp-check", "--seq", "1,1,0,1,0,0", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["plcp"] is True and data["stable"] is True
    assert data["height"] == 1
    assert data["lc_sum"] == 12 and data["lc_sum_bound"] == 12
    assert data["char_equivalence"] == [True, True, True]
    assert all(data["witnesses"][k] for k in
               ("lc", "parity", "exponent", "odd_delta", "index", "recursion"))


def test_plcp_check_nonbinary_stable_is_null(capsys):
    code, out, _ = run(capsys, "plcp-check", "--field", "3", "--seq", "1,2,0",
                       "--json")
    assert code == 0
    assert json.loads(out)["stable"] is None


def test_plcp_count_and_enum(capsys):
    code, out, _ = run(capsys, "plcp-count", "--field", "3", "--n", "2")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(capsys, "plcp-enum", "--field", "2", "--n", "3")
    assert code == 0
    assert sorted(out.strip().split("\n")) == ["1,0,1", "1,1,0"]


def test_plcp_enum_and_rueppel_json(capsys):
    code, out, _ = run(capsys, "plcp-enum", "--field", "2", "--n", "3", "--json")
    assert code == 0 and sorted(json.loads(out)) == [[1, 0, 1], [1, 1, 0]]
    code, out, _ = run(capsys, "rueppel", "--n", "8", "--json")
    assert code == 0 and json.loads(out) == {"terms": [1, 1, 0, 1, 0, 0, 0, 1]}


def test_enum_guard_exit_4(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the walk started past the guard")

    monkeypatch.setattr(analysis, "_walk_prefixes", no_work)
    code, _, err = run(capsys, "plcp-enum", "--field", "2", "--n", "40")
    assert code == 4 and "guard" in err
    # 2^24 and 3^15 are the least powers of 2 and 3 past ENUM_GUARD = 10^7
    for field, n in ((2, 24), (3, 15), (3, 10**18)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "plcp-enum", "--field", str(field), "--n", str(n))
        assert code == 4 and out == "" and "guard" in err
        assert time.perf_counter() - t0 < 1.0
    for json_flag in ((), ("--json",)):  # the stream is refused before its first byte
        code, out, err = run(capsys, "plcp-enum", "--field", "13", "--n", "6", *json_flag)
        assert (code, out) == (4, "") and "guard" in err


def test_stable_command(capsys):
    code, out, _ = run(capsys, "stable", "--seq", "1,1,0,1,0")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "stable", "--seq", "1,1,1")
    assert code == 0 and out.strip() == "false"


def test_height_and_lcsum(capsys):
    code, out, _ = run(capsys, "height", "--seq", "0,0,0", "--json")
    assert code == 0
    assert json.loads(out) == {"height": 4, "argmax_j": 3,
                               "exponents": [1, 2, 3, 4]}
    code, out, _ = run(capsys, "lcsum", "--seq", "1,1,1,0")
    assert code == 0 and out == "lc_sum = 6\nbound = 6\n"


def test_rueppel_and_gamma(capsys):
    code, out, _ = run(capsys, "rueppel", "--n", "8")
    assert code == 0 and out.strip() == "1,1,0,1,0,0,0,1"
    code, out, _ = run(capsys, "gamma", "--n", "5")
    assert code == 0 and out.strip() == "x^4+x^2+1"
    code, out, _ = run(capsys, "gamma", "--n", "5", "--json")
    assert json.loads(out) == {"gamma": "x^4+x^2+1"}


def test_rueppel_odd_minpoly_matches_closed_form(capsys):
    code, out, _ = run(capsys, "rueppel", "--n", "9")
    seq = out.strip()
    code, out, _ = run(capsys, "minpoly", "--seq", seq, "--json")
    assert json.loads(out)["mu"] == "x^5+x^4+x^2+x+1"  # gamma(6) + gamma(5)


# ---------------------------------------------------------------- verify

def test_verify_named_suite(capsys):
    code, out, _ = run(capsys, "verify", "bezout", "--field", "3",
                       "--trials", "60", "--max-n", "12")
    assert code == 0
    assert out.startswith("bezout: pass")


# Each verify invocation and the direct call it must equal.  The parameters
# are written out here rather than read from verify.SUITES, so the
# registry's mapping of flags onto parameters is checked against a copy.
SUITE_CALLS = [
    (("oracle", "--max-n", "6"),
     lambda: verify_mod.verify_oracle(fields=(2,), exhaustive_n=6)),
    (("oracle", "--field", "3", "--max-n", "6", "--trials", "40"),
     lambda: verify_mod.verify_oracle(fields=(3,), exhaustive_n=0, trials=40,
                                      max_n=6)),
    (("bezout", "--field", "3", "--max-n", "12", "--trials", "60"),
     lambda: verify_mod.verify_bezout(field=3, trials=60, max_n=12)),
    (("bezout", "--max-n", "10", "--trials", "30"),
     lambda: verify_mod.verify_bezout(field=2, trials=30, max_n=10)),
    (("wang-massey", "--max-n", "7"),
     lambda: verify_mod.verify_wang_massey(max_n=7)),
    (("plcp-count", "--field", "3", "--max-n", "5"),
     lambda: verify_mod.verify_plcp_count(cases=((3, 5),))),
    (("plcp-equiv", "--max-n", "7"),
     lambda: verify_mod.verify_plcp_equivalence(max_n=7)),
    (("rueppel", "--max-n", "16"),
     lambda: verify_mod.verify_rueppel(profile_n=128, matrix_n=16, closed_n=33,
                                       gamma_n=32, r0_k=5)),
    (("height", "--max-n", "8", "--trials", "50"),
     lambda: verify_mod.verify_height(exhaustive_n=8, bound_trials=50,
                                      cf_trials=10)),
    (("height", "--max-n", "16", "--trials", "3"),
     lambda: verify_mod.verify_height(exhaustive_n=14, bound_trials=3,
                                      cf_trials=1)),
    (("lcsum", "--trials", "40"),
     lambda: verify_mod.verify_lcsum(trials=40)),
]


@pytest.mark.parametrize("argv, direct", SUITE_CALLS,
                         ids=[" ".join(argv) for argv, _ in SUITE_CALLS])
def test_verify_flags_map_onto_the_suite(capsys, argv, direct):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0 and out == direct().line() + "\n"


NO_MAX_N = ("lcsum",)
NO_FIELD = ("wang-massey", "plcp-equiv", "rueppel", "height", "lcsum")
NO_TRIALS = ("wang-massey", "plcp-count", "plcp-equiv", "rueppel")


@pytest.mark.parametrize("suite, flag", [(s, ("--max-n", "6")) for s in NO_MAX_N]
                         + [(s, ("--field", "3")) for s in NO_FIELD]
                         + [(s, ("--trials", "5")) for s in NO_TRIALS]
                         # 2, the default of the suites that read --field
                         + [(s, ("--field", "2")) for s in NO_FIELD],
                         ids=lambda x: x if isinstance(x, str) else
                         x[0] if x[1] != "2" else "=".join(x))
def test_verify_suite_refuses_a_flag_it_does_not_read(capsys, monkeypatch,
                                                      suite, flag):
    def no_work(**kwargs):
        raise AssertionError("the suite ran")

    for name in ("verify_wang_massey", "verify_plcp_count",
                 "verify_plcp_equivalence", "verify_rueppel", "verify_height",
                 "verify_lcsum"):
        monkeypatch.setattr(verify_mod, name, no_work)
    code, out, err = run(capsys, "verify", suite, *flag)
    assert code == 2 and out == ""
    assert suite in err and flag[0] in err


def test_verify_all_applies_each_flag_where_it_is_read(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "6", "--field", "3",
                       "--trials", "20")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    for line in lines:
        suite = line.split(":")[0]
        read = []
        if suite not in NO_MAX_N:
            read += ["--max-n", "6"]
        if suite not in NO_FIELD:
            read += ["--field", "3"]
        if suite not in NO_TRIALS:
            read += ["--trials", "20"]
        _, single, _ = run(capsys, "verify", suite, *read)
        assert single == line + "\n"


@pytest.mark.parametrize("argv", [
    ("gamma", "--n", "5", "--field", "3"),
    ("rueppel", "--n", "5", "--field", "3"),
    ("height", "--seq", "0,0,0", "--epsilon", "1"),
    ("plcp-count", "--n", "3", "--epsilon", "1"),
    ("verify", "lcsum", "--epsilon", "1"),
    ("verify", "--suite", "lcsum"),
    ("stable", "--field", "3", "--seq", "1,2"),
    ("stable", "--field", "2", "--seq", "1,1"),
], ids=" ".join)
def test_flags_a_subcommand_does_not_read_exit_2(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("argv, want", [
    (("profile", "--seq", "1,2"), 2),
    (("profile", "--seq", "1", "--in", "no-such-file.txt"), 2),
    (("profile", "--field", "5", "--epsilon", "7", "--seq", "1"), 2),
    (("verify", "nonsense"), 2),
    (("verify", "lcsum", "--max-n", "3"), 2),
    (("gamma", "--n", "32769"), 4),
    # 13^6 candidates pass the q^n bound, but their 3,796,416 perfect
    # profiles would print 22.8 M terms
    (("plcp-enum", "--field", "13", "--n", "6"), 4),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_each_refusal_is_one_error_line(capsys, argv, want):
    # main alone turns a refusal into its exit code and its one line,
    # before any work
    t0 = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == want and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_an_engine_error_that_escapes_a_command_exits_3(capsys, monkeypatch):
    def refuse(s):
        raise UnsupportedDomainError("no such domain")

    monkeypatch.setattr(cli, "is_stable", refuse)
    code, out, err = run(capsys, "stable", "--seq", "1,1")
    assert (code, out, err) == (3, "", "error: no such domain\n")


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    commands = [line.split("#")[0] for line in block.splitlines()
                if line.startswith("lcprof ")]
    assert len(commands) >= 10
    parser = cli._build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])


def test_main_builds_the_parser_once(capsys):
    cli._build_parser.cache_clear()
    assert run(capsys, "rueppel", "--n", "4")[0] == 0
    assert run(capsys, "verify", "nonsense")[0] == 2
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_readme_verify_table_matches_the_registry():
    # README's table of verify suites and verify.SUITES are both kept by
    # hand; each row gives the default --max-n and --trials ("no" where the
    # suite takes none) and whether the suite reads --field
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| suite | `--max-n` | `--trials` | `--field` |\n|---|---|---|---|\n"
    assert readme.count(header) == 1
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()
    table = [[cell.strip().strip("`") for cell in row.strip("|").split("|")]
             for row in rows]

    def cell(value):
        return "no" if value is None else str(value)

    assert table == [[name, cell(suite.max_n), cell(suite.trials),
                      "yes" if suite.field else "no"]
                     for name, suite in verify_mod.SUITES.items()]


def test_readme_guard_table_names_every_guard_with_its_value():
    # each row names a constant as module.NAME and prints its value (2^14,
    # 10^7, 4300); every *_GUARD constant of the package has a row, and so
    # does the one other refusal bound, engine.ZZ_NABLA_BITS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = ("| Guard | Value | What it bounds | Smallest refused input |\n"
              "|---|---|---|---|\n")
    assert readme.count(header) == 1
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].splitlines()
    named = set()
    for row in rows:
        cells = row.strip("|").split("|")
        guard, value = (cell.strip().strip("`") for cell in cells[:2])
        module, _, name = guard.partition(".")
        base, _, power = value.partition("^")
        want = int(base) ** int(power) if power else int(base)
        assert getattr(importlib.import_module(f"lcprof.{module}"), name) == want, row
        named.add(guard)
    modules = [info.name for info in pkgutil.iter_modules(lcprof.__path__)
               if info.name != "__main__"]  # importing __main__ runs the CLI
    guards = {f"{module}.{name}" for module in modules
              for name in vars(importlib.import_module(f"lcprof.{module}"))
              if name.endswith("_GUARD")}
    assert guards | {"engine.ZZ_NABLA_BITS"} <= named, sorted(guards - named)


def test_verify_size_not_an_integer_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--max-n", "x")
    assert code == 2 and out == "" and "invalid int value: 'x'" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nonsense")
    assert code == 2 and "unknown suite" in err


def test_verify_small_sweeps(capsys):
    code, out, _ = run(capsys, "verify", "wang-massey", "--max-n", "9")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "plcp-count", "--field", "3",
                       "--max-n", "5")
    assert code == 0
    code, out, _ = run(capsys, "verify", "rueppel", "--max-n", "16")
    assert code == 0
    code, out, _ = run(capsys, "verify", "height", "--max-n", "8",
                       "--trials", "50")
    assert code == 0
    code, out, _ = run(capsys, "verify", "oracle", "--max-n", "6")
    assert code == 0
    code, out, _ = run(capsys, "verify", "plcp-equiv", "--max-n", "7")
    assert code == 0


VERIFY_ALL = """\
oracle: pass, 2046 checks
bezout: pass, 16790 checks
wang-massey: pass, 43690 checks
plcp-count: pass, 32766 checks
plcp-equiv: pass, 8191 checks
rueppel: pass, 6665 checks
height: pass, 34167 checks
lcsum: pass, 942 checks
"""


def test_verify_all_counts(capsys, monkeypatch):
    monkeypatch.delenv("LCPROF_THREADS", raising=False)
    code, out, _ = run(capsys, "verify", "all")
    assert code == 0 and out == VERIFY_ALL


def test_verify_json(capsys, monkeypatch):
    argv = ("verify", "lcsum", "--trials", "40")
    _, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    data = json.loads(out)
    assert data == {"suite": "lcsum", "ok": True, "checked": data["checked"],
                    "detail": ""}
    assert text == f"lcsum: pass, {data['checked']} checks\n"

    failed = verify_mod.VerifyResult("lcsum", False, 7, "three ones")
    monkeypatch.setattr(verify_mod, "verify_lcsum", lambda **kw: failed)
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 3
    assert json.loads(out) == {"suite": "lcsum", "ok": False, "checked": 7,
                               "detail": "three ones"}


# ---------------------------------------------------------------- threads

def test_sharded_sweep_matches_serial(monkeypatch, capsys):
    monkeypatch.setenv("LCPROF_THREADS", "2")
    code, out, _ = run(capsys, "verify", "wang-massey", "--max-n", "7")
    assert code == 0
    serial_checked = sum(1 << n for n in range(1, 8, 2))
    assert f"{serial_checked} checks" in out


def test_verify_loads_no_process_pool():
    code = (
        "import sys\n"
        "from lcprof.cli import main\n"
        "assert main(['verify', 'wang-massey', '--max-n', '7']) == 0\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# ------------------------------------------------------------ entry point

@pytest.mark.parametrize("module", ["lcprof.cli", "lcprof"])
def test_console_entry_point(module):
    proc = subprocess.run(
        [sys.executable, "-m", module, "minpoly", "--seq", "1,1,0,1,0,0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "mu = x^3+x^2+1" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", module, "profile", "--seq", "3,1",
         "--field", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_size_guards_exit_4(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started past the guard")

    monkeypatch.setattr(rueppel, "Seq", no_work)
    monkeypatch.setattr(rueppel, "_poly", no_work)
    # 4194305 = RUEPPEL_GUARD + 1, the least length refused
    for command, n in (("gamma", 10**9), ("rueppel", 10**9), ("rueppel", 4194305)):
        t0 = time.perf_counter()
        code, out, err = run(capsys, command, "--n", str(n))
        assert code == 4 and out == "" and "guard" in err
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("suite", ["plcp-equiv", "wang-massey", "oracle", "all"])
def test_verify_max_n_guard_exit_4(capsys, monkeypatch, suite):
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started past the guard")

    monkeypatch.setattr(verify_mod, "_walk_prefixes", no_work)
    monkeypatch.setattr(verify_mod, "mp_run", no_work)
    # 23 is the least length whose binary sequences pass ENUM_GUARD = 10^7
    for max_n in (23, 40, 10**18):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", suite, "--max-n", str(max_n))
        assert code == 4 and out == "" and "guard" in err
        assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("argv", [
    ("profile",), ("profile", "--epsilon", "2"),
    ("profile", "--json"), ("profile", "--json", "--epsilon", "2"),
    ("minpoly",), ("minpoly", "--epsilon", "2"),
    ("plcp-check", "--json"), ("plcp-check", "--json", "--epsilon", "2"),
], ids=" ".join)
def test_ternary_core_outputs_equal_the_generic_core(capsys, monkeypatch, argv):
    rng = random.Random(35)
    seqs = [",".join(str(rng.randrange(3)) for _ in range(n)) for n in (1, 9, 160)]
    seqs += [",".join(["0"] * 40), "0"]

    def outputs():
        for seq in seqs:
            assert main([*argv, "--field", "3", "--seq", seq]) == 0
        return capsys.readouterr().out

    planes = outputs()
    real = engine._make_core

    def generic(dom, config, force_generic=False):
        return real(dom, config, force_generic=True)

    monkeypatch.setattr(engine, "_make_core", generic)
    monkeypatch.setattr(analysis, "_make_core", generic)
    assert outputs() == planes


def test_verify_bezout_max_n_guard_exit_4(capsys, monkeypatch):
    # DRAW_N_GUARD bounds the bezout trials and the oracle's draws over
    # F_q, q > 2, and 4097 is the least length it refuses.  40 is a valid
    # size for both, so this guard has its own test: a sweep that started
    # would draw from the rng or build a core, and fail here
    def no_work(*args, **kwargs):
        raise AssertionError("the sweep started past the guard")

    monkeypatch.setattr(verify_mod, "_make_core", no_work)
    monkeypatch.setattr(verify_mod.random, "Random", no_work)
    for argv in (("bezout", "--max-n", str(10**18)), ("bezout", "--max-n", "4097"),
                 ("oracle", "--field", "7", "--max-n", "4097")):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert code == 4 and out == "" and "guard" in err
        assert time.perf_counter() - t0 < 1.0
    assert verify_mod.DRAW_N_GUARD >= max(verify_mod.SUITES["bezout"].max_n, 64)


@pytest.mark.parametrize("argv, flag", [
    (("wang-massey", "--max-n", "0"), "--max-n"),
    (("oracle", "--max-n", "-2"), "--max-n"),
    (("lcsum", "--max-n", "-4", "--trials", "-1"), "--max-n"),
    (("lcsum", "--trials", "-1"), "--trials"),
    (("rueppel", "--max-n", "0"), "--max-n"),
    (("bezout", "--trials", "0"), "--trials"),
    (("height", "--trials", "0"), "--trials"),
    (("all", "--max-n", "0"), "--max-n"),
    (("all", "--trials", "-3"), "--trials"),
], ids=" ".join)
def test_verify_sizes_below_one_exit_2(capsys, monkeypatch, argv, flag):
    def no_work(**kwargs):
        raise AssertionError("the suite ran")

    for name in ("verify_oracle", "verify_bezout", "verify_wang_massey",
                 "verify_plcp_count", "verify_plcp_equivalence", "verify_rueppel",
                 "verify_height", "verify_lcsum"):
        monkeypatch.setattr(verify_mod, name, no_work)
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert f"argument {flag}: must be at least 1" in err


def test_verify_sizes_of_one_run(capsys):
    code, out, _ = run(capsys, "verify", "bezout", "--max-n", "1", "--trials", "1")
    assert code == 0 and out == "bezout: pass, 1 checks\n"


# 2^14284 and 2^5526 * 3^5525 have 4300 digits; one more term passes the guard
PLCP_COUNT_EDGE = [(2, 28569, 2**14284), (3, 11051, 2**5526 * 3**5525)]


@pytest.mark.parametrize("field, n, count", PLCP_COUNT_EDGE,
                         ids=["f2", "f3"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
def test_plcp_count_at_the_digit_guard(capsys, field, n, count, json_flag):
    text = str(count)
    assert len(text) == 4300
    code, out, _ = run(capsys, "plcp-count", "--field", str(field), "--n", str(n),
                       *json_flag)
    assert code == 0
    assert out == (f'{{"count": {text}}}\n' if json_flag else text + "\n")
    code, out, err = run(capsys, "plcp-count", "--field", str(field),
                         "--n", str(n + 1), *json_flag)
    assert code == 4 and out == "" and "guard" in err


@pytest.mark.parametrize("field", [2, 3, 65521])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
def test_plcp_count_far_past_the_guard_exits_at_once(capsys, field, json_flag):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "plcp-count", "--field", str(field),
                         "--n", str(10**18), *json_flag)
    assert code == 4 and out == "" and "guard" in err
    assert time.perf_counter() - t0 < 1.0


def test_plcp_enum_negative_n_exit_2(capsys):
    code, out, err = run(capsys, "plcp-enum", "--n", "-1")
    assert code == 2 and out == "" and "n must be nonnegative" in err


@pytest.mark.parametrize("command", ["plcp-count", "plcp-enum"])
@pytest.mark.parametrize("field", [2**61 - 1, 2**31 + 11], ids=["2^61-1", "2^31+11"])
@pytest.mark.parametrize("n", [0, 2])
def test_plcp_commands_refuse_a_field_past_2_31_at_once(capsys, command, field, n):
    # both fields are prime; the range is checked before any trial division
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, "--field", str(field), "--n", str(n))
    assert code == 2 and out == "" and "below 2^31" in err
    assert time.perf_counter() - t0 < 1.0


def test_verify_rueppel_guard_exit_4(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the rueppel suite started past the guard")

    monkeypatch.setattr(verify_mod, "_make_core", no_work)
    monkeypatch.setattr(verify_mod, "gamma_identities", no_work)
    # at --max-n n the closed forms read gamma members up to 3n, so 10923
    # is the least n past GAMMA_GUARD = 2^15
    for max_n in (10923, 30000):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "verify", "rueppel", "--max-n", str(max_n))
        assert code == 4 and out == "" and "guard" in err
        assert time.perf_counter() - t0 < 1.0


def test_verify_oracle_refuses_a_draw_past_brute_force_before_any_check(
        capsys, monkeypatch):
    # the 50th draw of up to 14 terms over F_7 has LC 8, the degree at
    # which brute force refuses (7^9 > BRUTE_FORCE_GUARD); the engine-only
    # pass over the draws finds it before any draw is checked
    def no_work(*args, **kwargs):
        raise AssertionError("a check started past the guard")

    monkeypatch.setattr(verify_mod, "brute_force_minpoly", no_work)
    monkeypatch.setattr(verify_mod, "mp_run", no_work)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "oracle", "--field", "7",
                         "--max-n", "14", "--trials", "50")
    assert (code, out) == (4, "")
    assert "brute force bound exceeded at degree 8" in err
    assert time.perf_counter() - t0 < 1.0


def test_gamma_guard_allocates_nothing():
    from lcprof.errors import ResourceLimitError
    from lcprof.rueppel import GAMMA_GUARD, gamma_members, gamma_packed

    # both refuse before building a member or a list
    with pytest.raises(ResourceLimitError):
        gamma_packed(GAMMA_GUARD + 1)
    with pytest.raises(ResourceLimitError):
        gamma_members(GAMMA_GUARD + 1)
    assert gamma_packed(4) == 0b1000


@pytest.mark.parametrize("command", ["profile", "minpoly", "plcp-check"])
@pytest.mark.parametrize("eps", [5, 7, -1])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["plain", "json"])
def test_epsilon_outside_the_field_exit_2(capsys, monkeypatch, command, eps, json_flag):
    # --epsilon is a field element like the terms: refused, not reduced,
    # and before any engine run
    def no_work(*args, **kwargs):
        raise AssertionError("the engine ran on an out-of-range epsilon")

    for name in ("_run", "profile_json", "profile_text_rows", "analysis_report"):
        monkeypatch.setattr(cli, name, no_work)
    code, out, err = run(capsys, command, "--field", "5", "--epsilon", str(eps),
                         "--seq", "1,2,3", *json_flag)
    assert (code, out) == (2, "")
    assert err == f"error: --epsilon value {eps} outside [0, 5)\n"


# ------------------------------------------------------ seeded fuzzing

FUZZ_FIELDS = ["2"] * 4 + ["3", "5", "13", "65521", "2147483647",  # primes
                           "4", "1", "0", "-7", "2147483659", str(10**30)]  # refused
FUZZ_WORDS = ["0", "1", "2", "12", "007", "-1", "+1", "x", "1a", "", "1_0"]
FUZZ_SEPS = [",", " ", ", ", "\t", ",,", " , "]


def _fuzz_argv(rng):
    """One random argv for a subcommand other than verify."""
    def seq():  # at most 64 fields, half of the lines malformed
        words, seps = (FUZZ_WORDS, FUZZ_SEPS) if rng.random() < 0.5 else ("01", ", ")
        return rng.choice(seps).join(rng.choice(words) for _ in range(rng.randrange(65)))

    cmd = rng.choice(["profile", "minpoly", "plcp-check", "stable", "height",
                      "lcsum", "plcp-count", "plcp-enum", "rueppel", "gamma"])
    args = [cmd]
    if cmd not in ("stable", "rueppel", "gamma"):  # stable is over F_2 alone
        args += ["--field", rng.choice(FUZZ_FIELDS)]
    if cmd in ("profile", "minpoly", "plcp-check"):
        args += ["--epsilon", str(rng.choice([0, 1, 2, -1, 65521, 10**20]))]
    if cmd in ("plcp-count", "plcp-enum", "rueppel", "gamma"):
        sizes = [-3, 0, 1, 2, 5, 8, 10**18] + [64] * (cmd != "plcp-enum")
        args += ["--n", str(rng.choice(sizes))]
    else:
        args += ["--seq", seq()]
    return args + ["--json"] * rng.randrange(2)


def test_seeded_cli_fuzz_exits_0_2_or_4_quickly(capsys):
    rng = random.Random(22)
    for _ in range(400):
        args = _fuzz_argv(rng)
        t0 = time.perf_counter()
        code, _, _ = run(capsys, *args)
        took = time.perf_counter() - t0
        assert code in (0, 2, 4), (args, code)
        assert took < 5, (args, took)


def _refused_verify_argv(rng):
    """One verify argv that must be refused before any suite starts."""
    names = [*verify_mod.SUITES, "all"]
    kind = rng.randrange(3)
    if kind == 0:  # a suite name that is not one
        name = rng.choice(names)
        return ["verify", rng.choice([name.upper(), name[:-1], name + "x", "x" + name])]
    if kind == 1:  # a flag the single suite does not read
        unread = [(name, flag) for name, suite in verify_mod.SUITES.items()
                  for flag, read in (("--max-n", suite.max_n is not None),
                                     ("--field", suite.field),
                                     ("--trials", suite.trials is not None)) if not read]
        values = {"--max-n": ["1", "6", str(10**18)], "--field": ["2", "3"],
                  "--trials": ["1", "20", str(10**9)]}
        name, flag = rng.choice(unread)
        return ["verify", name, flag, rng.choice(values[flag])]
    # a size below 1 or not an integer, on any suite or all
    return ["verify", rng.choice(names), *rng.choice([("--max-n", "0"), ("--trials", "x")])]


def test_seeded_verify_refusals_exit_2_at_once(capsys):
    rng = random.Random(23)
    for _ in range(100):
        args = _refused_verify_argv(rng)
        t0 = time.perf_counter()
        code, out, _ = run(capsys, *args)
        took = time.perf_counter() - t0
        assert code == 2 and out == "", (args, code, out[:80])
        assert took < 1, (args, took)
