"""Command surface: golden transcripts, structured output, error codes."""

import argparse
import gc
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expweyl import cli
from expweyl.cli import main
from expweyl.config import SessionConfig, build_algebra
from expweyl.scalars import Scalar, _SeriesOps


def run(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


# -- golden transcripts --------------------------------------------------------


def test_golden_normalize(capsys):
    status, out, err = run(capsys, "normalize", "D_1 * x_1")
    assert status == 0 and err == ""
    assert out == "x_1*D_1 + 1\n"


def test_golden_comm(capsys):
    status, out, _ = run(capsys, "comm", "D_1", "x_1")
    assert status == 0
    assert out == "1\n"


def test_golden_noetherian(capsys):
    status, out, _ = run(capsys, "noetherian", "3")
    assert status == 0
    assert out == "(6, 0)\n"


def test_every_command_has_a_golden_case():
    parser = cli._build_parser()
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    ran = {
        next((a for a in case["argv"] if a in commands), None)
        for path in (Path(__file__).parent / "golden").glob("*_commands.json")
        for case in json.loads(path.read_text())["cases"]
    }
    assert sorted(set(commands) - ran) == []


def test_golden_transcripts_via_interpreter():
    # byte-stable through the real process boundary
    cases = [
        (["normalize", "D_1 * x_1"], b"x_1*D_1 + 1\n"),
        (["comm", "D_1", "x_1"], b"1\n"),
        (["noetherian", "3"], b"(6, 0)\n"),
    ]
    for argv, expected in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "expweyl.cli", *argv],
            capture_output=True,
            check=True,
        )
        assert proc.stdout == expected


LIE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "lie_commands.json").read_text())


@pytest.mark.parametrize(
    "case",
    LIE_GOLDEN["cases"],
    ids=lambda c: "-".join(
        a for a in c["argv"] if a in ("structured", "liebracket", "cespan", "ced", "eulerint")
    ),
)
def test_golden_lie_commands(case, tmp_path, capsys):
    # n 2 / rank 2 and hbar order 2; custom graded spans, E and exp factors
    paths = {}
    for name, fields in LIE_GOLDEN["configs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(fields))
    argv = [a.format(**paths) for a in case["argv"]]
    assert run(capsys, *argv) == (case["status"], case["stdout"], case["stderr"])


HBAR_GOLDEN = json.loads((Path(__file__).parent / "golden" / "hbar_commands.json").read_text())


@pytest.mark.parametrize(
    "case",
    HBAR_GOLDEN["cases"],
    ids=lambda c: "-".join(a.strip("{}") for a in c["argv"] if a[0] == "{" or a.isalpha() and a != "config"),
)
def test_golden_hbar_commands(case, tmp_path, capsys):
    # series payloads: rank 2 with --hbar-order 2 (divisions in commspan), and
    # the t-shift at order 2 and at the default order
    paths = {}
    for name, fields in HBAR_GOLDEN["configs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(fields))
    argv = [a.format(**paths) for a in case["argv"]]
    assert run(capsys, *argv) == (case["status"], case["stdout"], case["stderr"])


LATTICE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "lattice_commands.json").read_text())


@pytest.mark.parametrize(
    "case",
    LATTICE_GOLDEN["cases"],
    ids=lambda c: "-".join(a.strip("{}") for a in c["argv"] if a != "--config"),
)
def test_golden_lattice_commands(case, tmp_path, capsys):
    # tuple, g_j and integer lattice exponents at ranks 1-3 and n 2 / rank 2,
    # with the refusals of malformed lattice input; ord, grdiag (two spellings
    # of one element), noetherian, hochb, connesB and selftest at ranks 1 and 2
    paths = {}
    for name, fields in LATTICE_GOLDEN["configs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(fields))
    argv = [a.format(**paths) for a in case["argv"]]
    assert run(capsys, *argv) == (case["status"], case["stdout"], case["stderr"])


DEFORMATION_GOLDEN = json.loads((Path(__file__).parent / "golden" / "deformation_commands.json").read_text())


@pytest.mark.parametrize(
    "case",
    DEFORMATION_GOLDEN["cases"],
    ids=lambda c: "-".join(a.strip("{}-") for a in c["argv"] if a.lstrip("-").isalnum() or a[0] == "{"),
)
def test_golden_deformation_commands(case, tmp_path, capsys):
    # star, assoc, mc, tshift and ced at the default, rank-2, n 2 and
    # --hbar-order configs, with symbolic structure constants at rank 2
    paths = {}
    for name, fields in DEFORMATION_GOLDEN["configs"].items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(fields))
    argv = [a.format(**paths) for a in case["argv"]]
    assert run(capsys, *argv) == (case["status"], case["stdout"], case["stderr"])


def test_power_of_a_derivative_through_the_interpreter():
    # only k = 0 of each Leibniz sum survives, so squaring D_1^50000 is one term
    proc = subprocess.run(
        [sys.executable, "-m", "expweyl.cli", "normalize", "(D_1)^100000"],
        capture_output=True,
        timeout=20,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"D_1^100000\n", b"")


def test_a_high_star_order_copies_at_most_one_series(capsys, monkeypatch):
    """Printing a scalar reads one slot per power of hbar, so a star product
    at order N copies at most N + 1 slots, not a whole series per slot."""
    copied = []
    coeffs = _SeriesOps.coeffs

    def counted(self, x):
        out = coeffs(self, x)
        copied.append(len(out))
        return out

    monkeypatch.setattr(_SeriesOps, "coeffs", counted)
    order = 2000
    assert run(capsys, "star", "x_1", "D_1", "--order", str(order)) == (0, "x_1*y_1\n", "")
    assert sum(copied) <= order + 1


def test_a_high_star_order_prints_each_nonzero_slot_once(capsys, monkeypatch):
    """The formatter reads only a scalar's nonzero hbar slots, so printing
    the product's one coefficient 1 at order N reads one slot, not N + 1."""
    read = []
    payload_data = Scalar.payload_data

    def counted(self, k):
        out = payload_data(self, k)
        read.append(out)
        return out

    monkeypatch.setattr(Scalar, "payload_data", counted)
    assert run(capsys, "star", "x_1", "D_1", "--order", "2000") == (0, "x_1*y_1\n", "")
    assert read == [("rat", 1)]


# -- configuration -------------------------------------------------------------


def test_config_file_and_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"n": 1, "rank": 2, "p": [2], "t": [[0, 0]]}))
    status, out, _ = run(capsys, "--config", str(cfg), "normalize", "g_2*x_1")
    assert status == 0
    assert out == "g_2*x_1\n"
    # hbar needs the flag, not just the config
    status, _, err = run(capsys, "--config", str(cfg), "normalize", "hbar")
    assert status == 1 and "error[SignatureMismatch]" in err
    status, out, _ = run(
        capsys, "--config", str(cfg), "--hbar-order", "2", "normalize", "hbar + hbar^3"
    )
    assert status == 0
    assert out == "hbar\n"


@pytest.mark.parametrize(
    "fields, listed, expr, want",
    [
        ({"rank": 2}, {"p": [2], "t": [[0, 0]]}, "g_2*x_1", "g_2*x_1\n"),
        ({"n": 2}, {"p": [2, 2], "t": [[0], [0]]}, "D_2*x_2", "x_2*D_2 + 1\n"),
    ],
)
def test_absent_p_and_t_derive_from_n_and_rank(fields, listed, expr, want, tmp_path, capsys):
    # p defaults to 2 and t to the zero lattice element, one per variable
    cfg = tmp_path / "derived.json"
    cfg.write_text(json.dumps(fields))
    assert run(capsys, "--config", str(cfg), "normalize", expr) == (0, want, "")
    derived = build_algebra(SessionConfig(**fields)).signature
    assert derived == build_algebra(SessionConfig(**fields, **listed)).signature


def test_a_huge_derived_signature_is_refused(tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({"n": 10**9}))
    status, out, err = run(capsys, "--config", str(cfg), "normalize", "x_1")
    assert (status, out) == (1, "")
    assert err == "error[SignatureMismatch]: p and t are derived only for n * rank <= 10000\n"


@pytest.mark.parametrize(
    "fields", [{"n": -(2**63) - 1, "p": []}, {"rank": -(2**63) - 1}, {"n": -(2**70)}]
)
def test_an_overlong_negative_count_is_a_stable_error(fields, tmp_path, capsys):
    # a negative count derives an empty p or t row; past the index size it
    # used to overflow the tuple repeat and end in a traceback
    cfg = tmp_path / "negative.json"
    cfg.write_text(json.dumps(fields))
    status, out, err = run(capsys, "--config", str(cfg), "comm", "D_1", "E_1")
    assert (status, out) == (1, "")
    assert re.fullmatch(r"error\[SignatureMismatch\]: [^\n]*\n", err), err


def test_bad_config_is_a_stable_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    status, _, err = run(capsys, "--config", str(cfg), "normalize", "x_1")
    assert status == 1
    assert err.startswith("error[SignatureMismatch]:")


@pytest.mark.parametrize(
    "raw",
    [b'{"n": ' + b"7" * 5000 + b"}", b'\xff\xfe{"n": 1}'],
    ids=["5000-digit-integer", "invalid-utf8"],
)
def test_undecodable_config_is_a_stable_error(raw, tmp_path, capsys):
    cfg = tmp_path / "raw.json"
    cfg.write_bytes(raw)
    status, out, err = run(capsys, "--config", str(cfg), "normalize", "x_1")
    assert (status, out) == (1, "")
    assert err.startswith("error[SignatureMismatch]: config file is not valid JSON")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "fields", [{"n": "a"}, {"hbar_order": 1.5}, {"p": [1.5]}, {"t_shift": "false"}]
)
def test_config_field_types_are_checked(fields, tmp_path, capsys):
    # strings, floats and bools are refused, never coerced
    cfg = tmp_path / "typed.json"
    cfg.write_text(json.dumps(fields))
    status, out, err = run(capsys, "--config", str(cfg), "comm", "D_1", "E_1")
    assert status == 1 and out == ""
    assert err.startswith("error[SignatureMismatch]:")
    assert "Traceback" not in err


# -- structured output ----------------------------------------------------------


def test_structured_normalize_schema(capsys):
    status, out, _ = run(capsys, "--format", "structured", "normalize", "D_1*x_1")
    assert status == 0
    lines = out.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["schema"] == "expweyl/1"
    assert doc["command"] == "normalize"
    assert doc["text"] == "x_1*D_1 + 1"
    assert doc["terms"][0]["d"] == [1]
    # keys are emitted sorted, so the line itself is canonical
    assert lines[0] == json.dumps(doc, sort_keys=True)


def test_structured_noetherian(capsys):
    status, out, _ = run(capsys, "--format", "structured", "noetherian", "3")
    doc = json.loads(out)
    assert status == 0
    assert doc["pair"] == ["6", "0"]
    assert doc["certified"] is True


def test_structured_selftest(capsys):
    status, out, _ = run(capsys, "--format", "structured", "selftest")
    doc = json.loads(out)
    assert status == 0
    assert doc["ok"] is True
    assert all(c["ok"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    assert "defining_relations" in names and "parse_format_round_trip" in names


# -- error surfacing -------------------------------------------------------------


def test_syntax_error_with_position(capsys):
    status, out, err = run(capsys, "normalize", "x_1 + ")
    assert status == 1 and out == ""
    assert err.startswith("error[SyntaxError]:")
    assert "position 6" in err


def test_deep_nesting_is_a_syntax_error(capsys):
    status, out, err = run(capsys, "normalize", "(" * 5000 + "x_1" + ")" * 5000)
    assert status == 1 and out == ""
    assert err.startswith("error[SyntaxError]:")
    assert "position 100" in err


@pytest.mark.parametrize(
    "argv, line",
    [
        (("hochb", "x_1,y_9"), "error[UnknownSymbol]: unknown symbol 'y_9' (at position 4)"),
        (("hochb", "x_1,(D_1"), "error[SyntaxError]: expected ')' (at position 8)"),
        (("hochb", "x_1, y_9"), "error[UnknownSymbol]: unknown symbol 'y_9' (at position 5)"),
        (("hochb", "y_9,x_1"), "error[UnknownSymbol]: unknown symbol 'y_9' (at position 0)"),
        (("cespan", "D_1,x_1*D_1,%"), "error[SyntaxError]: unexpected character '%' (at position 12)"),
        (("cespan", "D_1,x_1*D_1,"), "error[SyntaxError]: empty expression (at position 12)"),
        (("commspan", "1", "D_1, y_3"), "error[UnknownSymbol]: unknown symbol 'y_3' (at position 5)"),
        (("commspan", "1", "x_1,D_1)"), "error[SyntaxError]: unexpected trailing input ')' (at position 7)"),
    ],
    ids=["chain", "chain-paren", "chain-space", "chain-first", "span", "span-empty", "pair", "pair-trailing"],
)
def test_a_parse_error_in_a_list_argument_counts_from_the_argument(argv, line, capsys):
    """A comma-separated argument reports a parse error's position in the
    whole argument, not in its piece; the first piece's position is its own."""
    status, out, err = run(capsys, *argv)
    assert (status, out, err) == (1, "", line + "\n")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("rank2", "1,x", "0,1"), "error[SyntaxError]: lattice exponent coordinates must be integers (at position 2)"),
        (("rank2", "1,2", "0,"), "error[SyntaxError]: lattice exponent coordinates must be integers (at position 2)"),
        (("commspan", "1", "x_1,D_1,x_1"),
         "error[SyntaxError]: a pair must be two comma-separated expressions (at position 8)"),
        (("commspan", "1", "x_1"), "error[SyntaxError]: a pair must be two comma-separated expressions (at position 3)"),
    ],
    ids=["lattice-second", "lattice-empty", "pair-three", "pair-one"],
)
def test_a_refused_piece_of_a_list_argument_reports_its_offset(argv, line, tmp_path, capsys):
    """A lattice coordinate that is no integer reports where its piece
    starts; a pair with a third piece reports that piece's offset, and a
    pair with one piece the end of the argument."""
    config = tmp_path / "rank2.json"
    config.write_text(json.dumps({"rank": 2, "t": [[0, 1]]}))
    status, out, err = run(capsys, "--config", str(config), *argv)
    assert (status, out, err) == (1, "", line + "\n")


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_exhaustion_is_an_error_line(capsys, monkeypatch, exc):
    def exhausted(*args, **kwargs):
        raise exc()

    monkeypatch.setattr("expweyl.cli.parse", exhausted)
    status, out, err = run(capsys, "normalize", "x_1")
    assert status == 1 and out == ""
    assert "Traceback" not in err
    assert err.startswith(f"error[{exc.__name__}]:")
    assert err.count("\n") == 1


# 2^15000 has 4516 digits, past the interpreter's default limit of 4300 for
# integer-to-text conversion
@pytest.mark.parametrize(
    "argv",
    [
        ("normalize", "2^15000"),
        ("--format", "structured", "normalize", "2^15000"),
        ("mul", "D_1^2", "2^15000*x_1"),
    ],
    ids=["text", "structured", "mul"],
)
def test_overlong_result_integer_is_an_error_line(argv, capsys):
    status, out, err = run(capsys, *argv)
    assert status == 1 and out == ""
    assert err.startswith("error[IntegerTooLong]:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "template, position",
    [("3*{}", 2), ("x_1^{}", 4), ("1/{}", 0), ("x_{}", 0)],
    ids=["operand", "exponent", "denominator", "index"],
)
def test_overlong_integer_literal_is_a_syntax_error(template, position, capsys):
    status, out, err = run(capsys, "normalize", template.format("7" * 5000))
    assert status == 1 and out == ""
    assert err.startswith("error[SyntaxError]:")
    assert f"position {position})" in err
    assert err.count("\n") == 1


# N has 4300 digits, which the tokenizer takes; the orders and degrees below
# are 2N, one digit past the limit
@pytest.mark.parametrize("structured", [False, True], ids=["text", "structured"])
@pytest.mark.parametrize(
    "argv",
    [
        ("ord", "x_1^{N}*x_1^{N}"),
        ("degree", "exp({N}*x_1)*exp({N}*x_1)"),
        ("degree", "--power", "x_1^{N}*x_1^{N}"),
        ("grdiag", "x_1^{N}*x_1^{N}", "1"),
    ],
    ids=["ord", "degree", "power-degree", "grdiag"],
)
def test_overlong_order_or_degree_is_an_error_line(argv, structured, capsys):
    N = "9" * 4300
    fmt = ("--format", "structured") if structured else ()
    status, out, err = run(capsys, *fmt, *(a.format(N=N) for a in argv))
    assert status == 1 and out == ""
    assert err.startswith("error[IntegerTooLong]:")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, separated",
    [
        (["normalize", "-x_1"], ["normalize", "--", "-x_1"]),
        (["normalize", "--x_1"], ["normalize", "--", "--x_1"]),
        (
            ["--format", "structured", "normalize", "-1/2*D_1"],
            ["--format", "structured", "normalize", "--", "-1/2*D_1"],
        ),
        (
            ["--hbar-order", "1", "normalize", "-hbar"],
            ["--hbar-order", "1", "normalize", "--", "-hbar"],
        ),
        (["degree", "-x_1", "--power"], ["degree", "--power", "--", "-x_1"]),
        (["probe", "-D_1", "--maxdeg", "2"], ["probe", "--maxdeg", "2", "--", "-D_1"]),
        (["--seed", "-3", "mul", "-x_1", "-D_1"], ["--seed", "-3", "mul", "--", "-x_1", "-D_1"]),
        (["commspan", "-1", "-D_1, x_1"], ["commspan", "--", "-1", "-D_1, x_1"]),
        (["normalize", "-x_1 +"], ["normalize", "--", "-x_1 +"]),
    ],
)
def test_leading_minus_is_an_expression(argv, separated, capsys):
    got = run(capsys, *argv)
    assert got == run(capsys, *separated)
    assert got[0] == (1 if argv[-1].endswith("+") else 0)


def test_options_still_parse_beside_expressions(tmp_path, capsys):
    config = tmp_path / "rank2.json"
    config.write_text(json.dumps({"rank": 2, "t": [[0, 1]]}))
    out = "product = -1/2*hbar*E_1*x_1^(1,-1) + x_1^(1,-1)\ncommutator = -hbar*E_1*x_1^(1,-1)\n"
    expected = (0, out, "")
    assert run(capsys, "--config", str(config), "rank2", "1,-2", "0,1", "--c", "-1/2") == expected
    status, _, err = run(capsys, "normalize", "-x_1", "--maxdeg", "2")
    assert status == 1
    assert err == "error[UsageError]: unrecognized arguments: --maxdeg 2\n"
    status, _, err = run(capsys, "--seed", "-x", "normalize", "1")
    assert status == 1
    assert err == "error[UsageError]: argument --seed: invalid int value: '-x'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--seed", "x", "normalize", "1"], "argument --seed: invalid int value: 'x'"),
        (["normalize", "--"], "the following arguments are required: expr"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
        (["normalize", "x_1", "foo\nbar", "a\rb"], "unrecognized arguments: foo\\nbar a\\rb"),
    ],
    ids=["bad-seed", "missing-expression", "unknown-command", "no-command", "line-breaks"],
)
def test_usage_errors_are_error_lines(argv, message, capsys):
    status, out, err = run(capsys, *argv)
    assert (status, out) == (1, "")
    assert err.startswith(f"error[UsageError]: {message}")
    assert err.count("\n") == 1


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(capsys, "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: expweyl")


def test_unknown_symbol_error(capsys):
    status, _, err = run(capsys, "normalize", "q_7")
    assert status == 1
    assert err.startswith("error[UnknownSymbol]:")


def test_negative_power_error(capsys):
    status, _, err = run(capsys, "normalize", "D_1^-1")
    assert status == 1
    assert err.startswith("error[NegativePower]:")


def test_hbar_outside_mode_error(capsys):
    status, _, err = run(capsys, "normalize", "hbar")
    assert status == 1
    assert err.startswith("error[SignatureMismatch]:")


def test_zero_order_error(capsys):
    status, _, err = run(capsys, "ord", "x_1 - x_1")
    assert status == 1
    assert err.startswith("error[ZeroElement]:")


def test_act_requires_function(capsys):
    status, _, err = run(capsys, "act", "D_1", "D_1")
    assert status == 1
    assert err.startswith("error[NotAFunction]:")


# -- command behavior -------------------------------------------------------------


def test_ord_degree_symbol(capsys):
    assert run(capsys, "ord", "x_1^3*D_1^2 + D_1")[1] == "5\n"
    assert run(capsys, "degree", "exp(2*x_1)")[1] == "(2)\n"
    assert run(capsys, "degree", "x_1^3", "--power")[1] == "(3)\n"
    assert run(capsys, "symbol", "x_1*D_1^2 + D_1")[1] == "x_1*y_1^2\n"


def test_grdiag_strict_drop_refuted(tmp_path, capsys):
    cfg = tmp_path / "t1.json"
    cfg.write_text(json.dumps({"n": 1, "rank": 1, "p": [2], "t": [[1]]}))
    status, out, _ = run(capsys, "--config", str(cfg), "grdiag", "D_1", "E_1")
    assert status == 0
    assert "strict_drop=false" in out
    assert "witness=" in out


def test_grdiag_weyl_pair_drops(capsys):
    _, out, _ = run(capsys, "grdiag", "D_1", "x_1")
    assert "strict_drop=true" in out
    assert "submultiplicative=true" in out


def test_act_and_probe(capsys):
    assert run(capsys, "act", "D_1^2", "x_1^2")[1] == "2\n"
    _, out, _ = run(capsys, "probe", "x_1*D_1")
    assert out.splitlines()[0] == "zero: false"
    assert "witness" in out
    assert run(capsys, "probe", "x_1 - x_1")[1] == "zero: true\n"


def test_probe_does_not_certify_past_its_bound(capsys):
    # D_1^3 kills every x_1^g with g <= 2, so maxdeg 2 cannot certify zero
    status, out, err = run(capsys, "probe", "D_1^3", "--maxdeg", "2")
    assert status == 1 and out == ""
    assert err.startswith("error[UnsupportedElement]:")
    status, out, err = run(capsys, "probe", "x_1", "--maxdeg", "-1")
    assert status == 1 and out == ""
    assert err.startswith("error[SignatureMismatch]:")


@pytest.mark.parametrize("command", ["mc", "assoc"])
def test_negative_triple_counts_are_refused(command, capsys):
    status, out, err = run(capsys, command, "--triples", "-3")
    assert status == 1 and out == ""
    assert err.startswith("error[SignatureMismatch]:")
    assert err.count("\n") == 1


def test_liebracket(capsys):
    assert run(capsys, "liebracket", "x_1*D_1", "D_1")[1] == "-D_1\n"


def test_cespan_preset_and_custom(capsys):
    _, out, _ = run(capsys, "cespan", "sl2like")
    assert "dimension: 3" in out and "degrees: -1, 0, 1" in out
    status, _, err = run(capsys, "cespan", "x_1^2*D_1, x_1^3*D_1")
    assert status == 1
    assert err.startswith("error[NotClosed]:")


def test_ced_and_eulerint(capsys):
    _, out, _ = run(capsys, "--seed", "3", "ced", "borel", "--degree", "1")
    assert "d^2 omega == 0: true" in out
    _, out, _ = run(capsys, "--seed", "3", "eulerint", "sl2like")
    assert "d phi == omega: true" in out


PRESET_BASES = {"borel": "D_1, x_1*D_1", "sl2like": "D_1, x_1*D_1, x_1^2*D_1"}


@pytest.mark.parametrize("command", ["cespan", "ced", "eulerint"])
def test_a_preset_takes_grading_like_its_typed_out_basis(command, capsys):
    """--grading names a basis element of a preset as of the same basis typed
    out: x D (index 1) grades both, D and x^2 D act off the diagonal, and an
    index past the basis is refused."""
    results = {}
    for preset, basis in PRESET_BASES.items():
        for grading in ("0", "1", "2", "5"):
            got = run(capsys, "--seed", "3", command, preset, "--grading", grading)
            assert got == run(capsys, "--seed", "3", command, basis, "--grading", grading)
            results[preset, grading] = got[0], got[2].split(":")[0]
    assert results == {
        ("borel", "0"): (1, "error[NotHomogeneous]"),
        ("borel", "1"): (0, ""),
        ("borel", "2"): (1, "error[SignatureMismatch]"),
        ("borel", "5"): (1, "error[SignatureMismatch]"),
        ("sl2like", "0"): (1, "error[NotHomogeneous]"),
        ("sl2like", "1"): (0, ""),
        ("sl2like", "2"): (1, "error[NotHomogeneous]"),
        ("sl2like", "5"): (1, "error[SignatureMismatch]"),
    }


def test_eulerint_on_an_ungraded_span_is_an_error_line(capsys):
    status, out, err = run(capsys, "eulerint", "D_1, x_1*D_1")
    assert (status, out, err) == (1, "", "error[NotHomogeneous]: span has no grading element\n")


@pytest.mark.parametrize("command", ["ced borel", "eulerint sl2like"])
@pytest.mark.parametrize("structured", [False, True])
def test_negative_cochain_degree_is_an_error_line(command, structured, capsys):
    argv = ["--format", "structured"] if structured else []
    status, out, err = run(capsys, *argv, *command.split(), "--degree", "-1")
    if command.startswith("eulerint"):
        # only 2-cochains are integrated, so eulerint has no --degree to misuse
        assert (status, out) == (1, "")
        assert err.startswith("error[UsageError]:") and err.count("\n") == 1
    else:
        assert (status, out, err) == (1, "", "error[SignatureMismatch]: cochain degree must be >= 0\n")


@pytest.mark.parametrize("structured", [False, True])
def test_noetherian_past_the_digit_limit_is_an_error_line(structured, capsys):
    # 1559! is the first factorial with more than 4300 digits
    argv = ["--format", "structured"] if structured else []
    status, out, err = run(capsys, *argv, "noetherian", "1559")
    assert (status, out) == (1, "")
    assert err.startswith("error[IntegerTooLong]:") and err.count("\n") == 1
    assert run(capsys, *argv, "noetherian", "3")[0] == 0


@pytest.mark.parametrize("command", ["assoc", "star D_1 x_1", "tshift"])
def test_negative_hbar_order_is_refused(command, capsys):
    status, out, err = run(capsys, *command.split(), "--order", "-1")
    assert (status, out, err) == (1, "", "error[SignatureMismatch]: hbar order must be >= 0\n")


def test_hochb_and_connesB(capsys):
    _, out, _ = run(capsys, "hochb", "D_1, x_1")
    assert out == "b = [1]\nb^2 == 0: true\n"
    _, out, _ = run(capsys, "connesB", "D_1, x_1")
    assert out == "B = -1 * [1, x_1, D_1] + [1, D_1, x_1]\n"


def test_commspan(capsys):
    _, out, _ = run(capsys, "commspan", "1", "D_1, x_1")
    assert out.splitlines()[0] == "inside: true"
    assert run(capsys, "commspan", "x_1^5", "D_1, x_1")[1] == "inside: false\n"


def test_golden_hbar_spans(capsys):
    # [hbar*D_1, x_1] = hbar: solved over Q with the hbar slots as columns
    status, out, err = run(capsys, "--hbar-order", "2", "commspan", "hbar", "hbar*D_1, x_1")
    assert (status, out, err) == (0, "inside: true\ncombination: 1\n", "")
    # hbar*D_1 has no hbar^0 part, so the two do not span a free module
    status, out, err = run(capsys, "--hbar-order", "2", "cespan", "hbar*D_1, x_1*D_1")
    assert (status, out) == (1, "")
    assert err.startswith("error[NotIndependent]:")


def test_star_and_assoc(capsys):
    assert run(capsys, "star", "D_1", "x_1")[1] == "x_1*y_1 + hbar\n"
    _, out, _ = run(capsys, "star", "D_1^2", "x_1^2", "--order", "3")
    assert out == "x_1^2*y_1^2 + 4*hbar*x_1*y_1 + 2*hbar^2\n"
    _, out, _ = run(capsys, "--seed", "2", "assoc", "--triples", "5")
    assert out == "associative through hbar^2 on 5 triples\n"


def test_rank2_command(tmp_path, capsys):
    cfg = tmp_path / "r2.json"
    cfg.write_text(json.dumps({"n": 1, "rank": 2, "p": [2], "t": [[0, 0]]}))
    _, out, _ = run(capsys, "--config", str(cfg), "rank2", "1,0", "0,1")
    lines = out.splitlines()
    assert lines[0] == "product = hbar*E_1*x_1^(1,1) + x_1^(1,1)"
    assert lines[1] == "commutator = 2*hbar*E_1*x_1^(1,1)"
    _, out, _ = run(capsys, "--config", str(cfg), "rank2", "2,0", "0,1", "--c", "3/2")
    assert "commutator = 6*hbar*E_1*x_1^(2,1)" in out


def test_rank2_refuses_a_decimal_exponent_past_the_digit_limit(tmp_path, capsys):
    # Fraction would build 10**e first; with alpha = beta the pairing is zero
    # and the number would be dropped without a word
    cfg = tmp_path / "r2.json"
    cfg.write_text(json.dumps({"rank": 2, "t": [[0, 1]]}))
    limit = sys.get_int_max_str_digits()
    for c in (f"1e{limit + 1}", f"1E-{limit + 1}", "1e10000000"):
        status, out, err = run(capsys, "--config", str(cfg), "rank2", "1,0", "1,0", "--c", c)
        assert (status, out) == (1, "")
        assert err == f"error[SyntaxError]: decimal exponent beyond {limit} (at position 0)\n"
    status, _, err = run(capsys, "--config", str(cfg), "rank2", "1,0", "0,1", "--c", f"1e{limit}")
    assert status == 1 and err.startswith("error[IntegerTooLong]")
    status, out, _ = run(capsys, "--config", str(cfg), "rank2", "1,0", "0,1", "--c", "2.5e1")
    assert status == 0 and "commutator = 50*hbar*E_1*x_1^(1,1)" in out


def test_tshift_command(tmp_path, capsys):
    cfg = tmp_path / "t1.json"
    cfg.write_text(json.dumps({"n": 1, "rank": 1, "p": [2], "t": [[1]]}))
    status, out, _ = run(capsys, "--config", str(cfg), "tshift", "--order", "2")
    assert status == 0
    assert "hbar^1 deviation nonzero" in out
    _, doc_out, _ = run(
        capsys, "--config", str(cfg), "--format", "structured", "tshift", "--order", "2"
    )
    doc = json.loads(doc_out)
    assert doc["classical"].startswith("E_1*exp(1*x_1)*")
    assert doc["first_order"] != "0"


def test_a_tower_that_is_an_exponential_gets_the_exponential_verdicts(tmp_path, capsys):
    """With p = 1 and t = 0, E_1 is exp(1*x_1): the probe finds the
    difference zero and the degree reads the exponential's."""
    cfg = tmp_path / "p1t0.json"
    cfg.write_text(json.dumps({"p": [1], "t": [[0]]}))
    for argv, want in [
        (["probe", "E_1 - exp(1*x_1)"], "zero: true\n"),
        (["comm", "E_1 - exp(1*x_1)", "D_1"], "0\n"),
        (["degree", "E_1"], "(1)\n"),
        (["degree", "exp(1*x_1)"], "(1)\n"),
        (["normalize", "E_1^2"], "exp(2*x_1)\n"),
    ]:
        assert run(capsys, "--config", str(cfg), *argv) == (0, want, "")
    status, out, _ = run(capsys, "--config", str(cfg), "--format", "structured", "probe", "E_1 - exp(1*x_1)")
    assert status == 0 and json.loads(out)["zero"] is True


def test_mc_command(capsys):
    _, out, _ = run(capsys, "--seed", "4", "mc", "--triples", "4")
    assert out == "maurer-cartan residual zero on 4 triples\n"


def test_selftest_green_and_exit_code(capsys):
    status, out, _ = run(capsys, "selftest")
    assert status == 0
    lines = out.splitlines()
    assert lines[-1].startswith("selftest: ok")
    assert all(line.startswith("ok ") for line in lines[:-1])


# -- determinism -----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["--format", "structured", "--seed", "5", "assoc", "--triples", "4"],
        ["--seed", "9", "ced", "sl2like", "--degree", "2"],
        ["selftest"],
    ],
)
def test_identical_invocations_are_byte_identical(argv, capsys):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


# -- process entry -----------------------------------------------------------------


def test_main_leaves_the_collector_alone(capsys):
    frozen = gc.get_freeze_count()
    assert run(capsys, "comm", "D_1", "x_1")[0] == 0
    assert run(capsys, "noetherian", "0")[0] == 1
    assert gc.get_freeze_count() == frozen


def test_run_freezes_once_and_returns_the_status(monkeypatch, capsys):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    assert cli.run(["comm", "D_1", "x_1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert cli.run(["noetherian", "0"]) == 1
    assert freezes == [1, 1]


def _console_script() -> str:
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["expweyl"]


def test_console_script_is_the_process_entry():
    assert _console_script() == "expweyl:main"


@pytest.mark.parametrize("argv, status", [(["comm", "D_1", "x_1"], 0), (["noetherian", "0"], 1)])
def test_console_script_runs_like_the_module(argv, status):
    """The installed ``expweyl`` wrapper imports the target and exits with
    what it returns; it prints and exits as ``python -m expweyl.cli`` does."""
    module, name = _console_script().split(":")
    wrapper = f"import sys; from {module} import {name}; sys.exit({name}())"
    script = subprocess.run([sys.executable, "-c", wrapper, *argv], capture_output=True, timeout=60)
    direct = subprocess.run([sys.executable, "-m", "expweyl.cli", *argv], capture_output=True, timeout=60)
    assert script.returncode == direct.returncode == status
    assert (script.stdout, script.stderr) == (direct.stdout, direct.stderr)


# Runs ``python -m expweyl.cli comm D_1 x_1`` through runpy, as the interpreter
# does, and notes at cli.py's first line and at the call of its ``main``: the
# collections so far, whether the collector is on, whether selftest is loaded.
_ENTRY_PROBE = """
import gc, json, runpy, sys
collections, seen = [], {}
gc.callbacks.append(lambda phase, info: phase == "start" and collections.append(info["generation"]))

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.endswith("cli.py") and code.co_name in ("<module>", "main"):
        state = [len(collections), gc.isenabled(), "expweyl.selftest" in sys.modules]
        seen.setdefault(code.co_name, state)

sys.argv = ["expweyl", "comm", "D_1", "x_1"]
sys.setprofile(profile)
try:
    runpy.run_module("expweyl.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    sys.setprofile(None)
    print(json.dumps({"seen": seen, "status": exc.code}))
"""


def test_a_cold_call_loads_with_the_collector_off_and_runs_main_with_it_on():
    child = subprocess.run(
        [sys.executable, "-c", _ENTRY_PROBE], capture_output=True, text=True, timeout=60, check=True
    )
    out, report = child.stdout.splitlines()
    got = json.loads(report)
    assert (out, got["status"]) == ("1", 0)
    start, at_main = got["seen"]["<module>"], got["seen"]["main"]
    # the collector is on when cli.py starts and runs no collection from there to main,
    # which runs with it on again and without selftest loaded
    assert start[1] and at_main[0] == start[0]
    assert at_main[1:] == [True, False]


def test_a_library_import_of_the_cli_leaves_the_collector_alone():
    probe = "import gc, expweyl.cli; print(gc.isenabled(), gc.get_freeze_count())"
    child = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert child.stdout == "True 0\n"


@pytest.mark.parametrize("structured", [False, True])
def test_noetherian_refuses_before_it_computes(structured, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the witness was computed")

    monkeypatch.setattr(cli, "noetherian_witness", refuse)
    argv = ["--format", "structured"] if structured else []
    for n in ("1559", "1000000000"):
        start = time.perf_counter()
        status, out, err = run(capsys, *argv, "noetherian", n)
        assert time.perf_counter() - start < 2
        assert (status, out) == (1, "")
        assert err == "error[IntegerTooLong]: an integer in the result has more than 4300 digits\n"


def test_noetherian_refusal_through_the_interpreter():
    proc = subprocess.run(
        [sys.executable, "-m", "expweyl.cli", "noetherian", "1000000000"],
        capture_output=True,
        timeout=20,
    )
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.startswith(b"error[IntegerTooLong]:") and proc.stderr.count(b"\n") == 1
