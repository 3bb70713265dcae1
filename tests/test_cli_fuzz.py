"""CLI fuzz: no drawn command line or config file ends in a traceback or an
unqualified exit.

Expressions are built from a token alphabet (atoms, operators, parentheses,
small numbers, ``1/0``, ``hbar``, ``g_2``, a 5000-digit literal and powers
0..12), sometimes with one token dropped or inserted so that the parser's
error paths are drawn too.  Every run must exit 0 or 1, and exit 1 must come
with exactly one ``error[...]`` line on stderr.

The exponents of one command line share a budget of 12: nested powers such
as ``((E_1 + D_1)^12)^12`` build elements with so many terms that they take
minutes, which is a cost, not a crash.

Config files are drawn as JSON objects over the config fields and a few
unknown keys, with values of every JSON type, nested lists and objects;
some files carry a 5000-digit integer literal or bytes that are not UTF-8.
``n``, ``rank`` and ``hbar_order`` stay at most 3 when they are integers,
because a large truncation order allocates that many payload slots.

The commands that take no expression are drawn with their integer options
(degrees, orders, triple counts, the variable index, the probe bound,
noetherian's n and rank2's coordinates and constant) from small ranges that
include negatives, over the default and a rank-2 signature.
"""

import json
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expweyl.cli import main

LONG_LITERAL = "7" * 5000
ATOMS = [
    "x_1", "D_1", "E_1", "exp(2*x_1)", "exp(-1*x_1)", "x_1^(2)",
    "0", "1", "2", "7", "1/2", "3/4", "hbar",
]
# atoms that fail in every default signature; drawn one time in ten
BAD_ATOMS = ["x_2", "g_2", "1/0", LONG_LITERAL]
STRAY = ["(", ")", "+", "-", "*", "^", ",", "x_1", "1/0", "^12", "$"]
EXPONENT_BUDGET = 12

# command -> how its expressions are passed: "one", "two", "chain" (1-3
# comma-joined tensor factors) or "span" (a target and one "P, Q" pair)
COMMANDS = {
    "normalize": "one", "ord": "one", "degree": "one", "symbol": "one", "probe": "one",
    "mul": "two", "comm": "two", "grdiag": "two", "act": "two", "liebracket": "two",
    "star": "two", "hochb": "chain", "connesB": "chain", "commspan": "span",
}

ERROR_LINE = re.compile(r"error\[[A-Za-z]+\]: [^\n]*\n")


def _factor(data, depth, budget):
    group = depth < 2 and data.draw(st.integers(0, 4)) == 0
    if group:
        text = f"({_expression(data, depth + 1, budget)})"
    else:
        text = data.draw(st.sampled_from(BAD_ATOMS if data.draw(st.integers(0, 9)) == 0 else ATOMS))
    if budget[0] and data.draw(st.booleans()):
        k = data.draw(st.integers(0, budget[0]))
        budget[0] -= k
        text += f"^{k}"
    return text


def _expression(data, depth, budget):
    parts = ["-" if data.draw(st.integers(0, 3)) == 0 else ""]
    for t in range(data.draw(st.integers(1, 3))):
        if t:
            parts.append(data.draw(st.sampled_from([" + ", " - ", "*"])))
        parts.append(_factor(data, depth, budget))
    text = "".join(parts)
    mutation = data.draw(st.integers(0, 9))
    if mutation == 0:
        at = data.draw(st.integers(0, len(text) - 1))
        text = text[:at] + text[at + 1 :]
    elif mutation == 1:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(STRAY)) + text[at:]
    return text


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_cli_never_crashes(capsys, data):
    budget = [EXPONENT_BUDGET]
    argv = []
    if data.draw(st.booleans()):
        argv += ["--hbar-order", str(data.draw(st.integers(-1, 3)))]
    if data.draw(st.booleans()):
        argv += ["--format", "structured"]
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    shape = COMMANDS[command]
    if shape == "one":
        exprs = [_expression(data, 0, budget)]
    elif shape == "two":
        exprs = [_expression(data, 0, budget) for _ in range(2)]
    elif shape == "chain":
        factors = data.draw(st.integers(1, 3))
        exprs = [", ".join(_expression(data, 0, budget) for _ in range(factors))]
    else:
        target, P, Q = (_expression(data, 0, budget) for _ in range(3))
        exprs = [target, f"{P}, {Q}"]
    status = main(argv + [command, *exprs])
    captured = capsys.readouterr()
    assert status in (0, 1), (argv, command, exprs)
    assert "Traceback" not in captured.err
    if status == 1:
        assert ERROR_LINE.fullmatch(captured.err), captured.err
        assert captured.out == ""
    else:
        assert captured.err == ""


CONFIG_FIELDS = ["n", "rank", "p", "t", "hbar_order", "t_shift", "format", "seed"]
SMALL_FIELDS = {"n", "rank", "hbar_order"}
UNKNOWN_FIELDS = ["names", "weights", "N", ""]
LONG_MARK = "@long@"

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["text", "structured", LONG_MARK]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
# values of the right shape, so that some drawn configs build an algebra
SHAPED = {
    "p": st.lists(st.integers(-1, 4), max_size=3),
    "t": st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=3),
    "t_shift": st.booleans(),
    "format": st.sampled_from(["text", "structured"]),
}


def _config_value(data, field):
    value = data.draw(SHAPED[field] if field in SHAPED and data.draw(st.booleans()) else JSON_VALUES)
    if field in SMALL_FIELDS and isinstance(value, int) and not isinstance(value, bool):
        value = min(value, 3)
    return value


def _rare(data) -> bool:
    return data.draw(st.integers(1, 10)) == 7


def _config_bytes(data) -> bytes:
    if _rare(data):
        doc = data.draw(JSON_VALUES)
    else:
        fields = data.draw(st.lists(st.sampled_from(CONFIG_FIELDS), unique=True, max_size=5))
        if _rare(data):
            fields.append(data.draw(st.sampled_from(UNKNOWN_FIELDS)))
        doc = {field: _config_value(data, field) for field in fields}
    raw = json.dumps(doc).replace(json.dumps(LONG_MARK), LONG_LITERAL).encode()
    if _rare(data):
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from([b"\xff\xfe", b"\xc3", b"\x80"])) + raw[at:]
    return raw


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_config_never_crashes(tmp_path, capsys, data):
    raw = _config_bytes(data)
    cfg = tmp_path / "drawn.json"
    cfg.write_bytes(raw)
    status = main(["--config", str(cfg), "comm", "D_1", "E_1"])
    captured = capsys.readouterr()
    assert status in (0, 1), raw
    assert "Traceback" not in captured.err
    if status == 1:
        assert ERROR_LINE.fullmatch(captured.err), captured.err
        assert captured.out == ""
    else:
        assert captured.err == ""


RANK2 = {"n": 1, "rank": 2, "p": [2], "t": [[0, 0]]}
SMALL = st.integers(-2, 3)


def _integer_options(data, command):
    """The options of one non-expression command, each an integer in a small range."""
    ints = lambda *opts: [x for opt in opts for x in (opt, str(data.draw(SMALL)))]
    if command in ("ced", "eulerint"):
        option = "--ad-degree" if command == "eulerint" else "--degree"
        return [data.draw(st.sampled_from(["borel", "sl2like"])), *ints(option)]
    if command == "assoc":
        return ints("--order", "--triples")
    if command == "mc":
        return ints("--triples")
    if command == "tshift":
        return ints("--order", "--var")
    if command == "noetherian":
        return [str(data.draw(st.integers(-2, 8)))]
    if command == "probe":
        return ["x_1*D_1", *ints("--maxdeg")]
    coords = lambda: ",".join(str(data.draw(SMALL)) for _ in range(data.draw(st.integers(1, 2))))
    return [coords(), coords(), "--c", str(data.draw(SMALL))]


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(st.data())
def test_integer_options_never_crash(tmp_path, capsys, data):
    argv = []
    if data.draw(st.booleans()):
        cfg = tmp_path / "rank2.json"
        cfg.write_text(json.dumps(RANK2))
        argv += ["--config", str(cfg)]
    if data.draw(st.booleans()):
        argv += ["--format", "structured"]
    command = data.draw(
        st.sampled_from(["ced", "eulerint", "assoc", "mc", "tshift", "noetherian", "probe", "rank2"])
    )
    argv += [command, *_integer_options(data, command)]
    status = main(argv)
    captured = capsys.readouterr()
    assert status in (0, 1), argv
    assert "Traceback" not in captured.err
    if status == 1:
        assert ERROR_LINE.fullmatch(captured.err), (argv, captured.err)
        assert captured.out == ""
    else:
        assert captured.err == ""
