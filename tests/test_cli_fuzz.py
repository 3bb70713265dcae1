"""CLI fuzz: no drawn command line ends in a traceback or an unqualified exit.

Expressions are built from a token alphabet (atoms, operators, parentheses,
small numbers, ``1/0``, ``hbar``, ``g_2``, a 5000-digit literal and powers
0..12), sometimes with one token dropped or inserted so that the parser's
error paths are drawn too.  Every run must exit 0 or 1, and exit 1 must come
with exactly one ``error[...]`` line on stderr.

The exponents of one command line share a budget of 12: nested powers such
as ``((E_1 + D_1)^12)^12`` build elements with so many terms that they take
minutes, which is a cost, not a crash.
"""

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
