"""Command surface over the kernel.

Every command reads the session signature from ``--config`` (JSON with the
SessionConfig fields) plus the overriding flags, runs one module operation,
and prints either plain text or a line of versioned JSON
(``--format structured``, schema tag ``expweyl/1``).  Kernel errors are
reported as ``error[Code]: message`` on stderr with exit status 1, and so
is a command line argparse refuses (``error[UsageError]``); success exits
0; ``selftest`` exits 1 if any invariant check fails.

Deformation commands (star, assoc, rank2, tshift, mc) always work over the
plain algebra of the session signature and take the truncation order from
``--hbar-order`` / the config; the other commands operate on the configured
algebra directly, so ``hbar`` is only parseable when an order is set.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    gc.disable()  # the modules below load with no collection: see the end of this file

import argparse
import json
import random
import re
import sys
from fractions import Fraction

from .config import SessionConfig, build_algebra, load_config
from .deformation import (
    AntisymMatrix,
    mc_residual,
    rank2_commutator,
    rank2_product,
    star_assoc_check,
    star_cochain,
    symbol_star,
    t_shift_deform,
)
from .errors import KernelError, ParseError, SignatureMismatch, UnsupportedElement, UsageError
from .expr import (
    _digit_limit,
    _int_text,
    _too_long,
    element_to_records,
    format_element,
    format_gr_element,
    format_scalar,
    parse,
)
from .grading import (
    exp_degree,
    filtration_diagnostic,
    full_symbol,
    order,
    power_degree,
    symbol,
)
from .homology import commutator_span_check, connes_B, hochschild_b, tensor_chain
from .lie import PRESETS, DerivationElement, LieSpan, ce_differential, euler_integrate, witt_bracket
from .representation import act, faithfulness_probe, noetherian_witness
from .sampling import random_cochain, random_symbol

SCHEMA = "expweyl/1"

__all__ = ["main", "run"]


# -- argument helpers ----------------------------------------------------------


def _split_top(src: str) -> list[tuple[int, str]]:
    """Split on commas outside parentheses (tensor factors, pair lists) into
    (offset, piece) pairs: each piece stripped, its offset in src."""
    parts, start, depth = [], 0, 0
    for i, ch in enumerate(src):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(depth - 1, 0)
        elif ch == "," and depth == 0:
            parts.append((start, src[start:i]))
            start = i + 1
    parts.append((start, src[start:]))
    return [(at + len(p) - len(p.lstrip()), p.strip()) for at, p in parts]


def _parse_piece(algebra, at: int, piece: str):
    """parse(piece), with a parse error's position counted from offset at."""
    try:
        return parse(piece, algebra)
    except ParseError as e:
        raise type(e)(e.message, at + e.position) from None


def _lattice_arg(text: str, rank: int) -> tuple[int, ...]:
    coords = []
    for at, p in _split_top(text):
        try:
            coords.append(int(p))
        except ValueError:
            raise ParseError("lattice exponent coordinates must be integers", at) from None
    if len(coords) != rank:
        raise SignatureMismatch(
            f"exponent has {len(coords)} coordinates, signature rank is {rank}"
        )
    return tuple(coords)


def _rational_arg(text: str) -> Fraction:
    try:
        # Fraction builds 10**e for a decimal exponent e, before any digit limit applies
        m = re.search(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z", text)
        limit = _digit_limit()
        if m and limit and abs(int(m.group(1))) > limit:
            raise ParseError(f"decimal exponent beyond {limit}", 0)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError("expected a rational number", 0)


def _triples_arg(count: int) -> int:
    if count < 0:
        raise SignatureMismatch("triple count must be >= 0")
    return count


def _parse_chain(algebra, text: str):
    factors = [_parse_piece(algebra, at, p) for at, p in _split_top(text)]
    return tensor_chain(factors)


def _span_arg(algebra, spec: str, grading: int | None):
    preset = PRESETS.get(spec.strip())
    if preset is not None:
        # a preset's own grading unless --grading names another basis element
        return preset(algebra) if grading is None else preset(algebra, grading=grading)
    basis = [DerivationElement(_parse_piece(algebra, at, p)) for at, p in _split_top(spec)]
    return LieSpan(basis, grading=grading)


# -- rendering -----------------------------------------------------------------


def _coeff_text(s) -> str:
    text = format_scalar(s)
    if " + " in text or " - " in text:
        return f"({text})"
    return text


def _factors(chain, key) -> list[str]:
    return [format_element(chain.algebra.from_term(e)) for e in key]


def _chain_text(chain) -> str:
    if chain.is_zero:
        return "0"
    one = chain.algebra.field.one
    pieces = []
    for key, coeff in chain.sorted_terms():
        body = ", ".join(_factors(chain, key))
        pieces.append(f"[{body}]" if coeff == one else f"{_coeff_text(coeff)} * [{body}]")
    return " + ".join(pieces)


def _chain_records(chain) -> list[dict]:
    return [{"coeff": format_scalar(c), "factors": _factors(chain, key)} for key, c in chain.sorted_terms()]


def _cochain_records(omega) -> list[dict]:
    return [
        {"key": list(key), "value": [format_scalar(c) for c in coords]}
        for key, coords in omega.items()
    ]


def _cochain_lines(label: str, omega) -> list[str]:
    if omega.is_zero:
        return [f"{label}: 0"]
    lines = []
    for key, coords in omega.items():
        args = ",".join(str(i) for i in key)
        vals = ", ".join(format_scalar(c) for c in coords)
        lines.append(f"{label}({args}) = ({vals})")
    return lines


def _element_payload(P) -> dict:
    return {"text": format_element(P), "terms": element_to_records(P)}


# -- command implementations -----------------------------------------------------


def _cmd_normalize(ctx, args):
    P = parse(args.expr, ctx.algebra)
    return format_element(P), _element_payload(P)


def _cmd_mul(ctx, args):
    A = ctx.algebra
    P = A.mul(parse(args.left, A), parse(args.right, A))
    return format_element(P), _element_payload(P)


def _cmd_comm(ctx, args):
    A = ctx.algebra
    P = A.commutator(parse(args.left, A), parse(args.right, A))
    return format_element(P), _element_payload(P)


# ord, degree and grdiag build the text of their integers in both modes: past
# Python's digit limit _int_text raises IntegerTooLong, where json.dumps or an
# f-string would raise ValueError.
def _cmd_ord(ctx, args):
    k = order(parse(args.expr, ctx.algebra))
    return _int_text(k), {"order": k}


def _cmd_degree(ctx, args):
    P = parse(args.expr, ctx.algebra)
    degree = power_degree(P) if args.power else exp_degree(P)
    text = "(" + ",".join(map(_int_text, degree)) + ")"
    return text, {"degree": list(degree), "text": text}


def _cmd_symbol(ctx, args):
    u = symbol(parse(args.expr, ctx.algebra))
    return format_gr_element(u), {"text": format_gr_element(u)}


def _cmd_grdiag(ctx, args):
    A = ctx.algebra
    rep = filtration_diagnostic(parse(args.left, A), parse(args.right, A))
    witness = None
    if rep.witness is not None:
        witness = format_element(A.from_term(rep.witness, A.field.one))
    p, q, pq = map(_int_text, (rep.ord_p, rep.ord_q, rep.ord_pq))
    comm = "None" if rep.ord_comm is None else _int_text(rep.ord_comm)
    lines = [
        f"ord_p={p} ord_q={q} ord_pq={pq} ord_comm={comm}",
        f"submultiplicative={str(rep.submultiplicative).lower()} "
        f"strict_drop={str(rep.strict_drop).lower()}",
    ]
    if witness is not None:
        lines.append(f"witness={witness}")
    payload = {
        "ord_p": rep.ord_p,
        "ord_q": rep.ord_q,
        "ord_pq": rep.ord_pq,
        "ord_comm": rep.ord_comm,
        "submultiplicative": rep.submultiplicative,
        "strict_drop": rep.strict_drop,
        "witness": witness,
    }
    return "\n".join(lines), payload


def _cmd_act(ctx, args):
    A = ctx.algebra
    out = act(parse(args.operator, A), parse(args.function, A))
    return format_element(out), _element_payload(out)


def _cmd_probe(ctx, args):
    A = ctx.algebra
    rep = faithfulness_probe(parse(args.expr, A), args.maxdeg)
    if rep.zero:
        return "zero: true", {"zero": True, "witness_input": None, "witness_output": None}
    win, wout = format_element(rep.witness_input), format_element(rep.witness_output)
    text = f"zero: false\nwitness: act(P, {win}) = {wout}"
    return text, {"zero": False, "witness_input": win, "witness_output": wout}


def _cmd_noetherian(ctx, args):
    # The first value of the witness is n!, so whether its text passes the
    # digit limit is known before the n derivatives that build it: the
    # partial products of n! stop at the first one that passes.
    limit = _digit_limit()
    if limit:
        bound, f = 10**limit, 1
        for k in range(2, args.n + 1):
            f *= k
            if f >= bound:
                raise _too_long()
    rep = noetherian_witness(ctx.algebra, args.n)
    return rep.as_text(), {
        "n": rep.n,
        "pair": [format_scalar(rep.value_n), format_scalar(rep.value_n_plus_1)],
        "certified": rep.certified,
        "text": rep.as_text(),
    }


def _cmd_liebracket(ctx, args):
    A = ctx.algebra
    u = DerivationElement(parse(args.left, A))
    v = DerivationElement(parse(args.right, A))
    w = witt_bracket(u, v).as_element()
    return format_element(w), _element_payload(w)


def _cmd_cespan(ctx, args):
    span = _span_arg(ctx.algebra, args.span, args.grading)
    basis = [format_element(b.as_element()) for b in span.basis]
    lines = [f"dimension: {span.dim}", "closed: true"]
    if span.degrees is not None:
        lines.append("degrees: " + ", ".join(str(d) for d in span.degrees))
    lines.extend(f"basis[{i}] = {b}" for i, b in enumerate(basis))
    payload = {
        "dimension": span.dim,
        "closed": True,
        "degrees": list(span.degrees) if span.degrees is not None else None,
        "basis": basis,
    }
    return "\n".join(lines), payload


def _cmd_ced(ctx, args):
    span = _span_arg(ctx.algebra, args.span, args.grading)
    omega = random_cochain(span, ctx.rng, args.degree)
    dom = ce_differential(omega)
    dd_zero = ce_differential(dom).is_zero
    lines = _cochain_lines("omega", omega) + _cochain_lines("d omega", dom)
    lines.append(f"d^2 omega == 0: {str(dd_zero).lower()}")
    payload = {
        "degree": args.degree,
        "cochain": _cochain_records(omega),
        "differential": _cochain_records(dom),
        "d_squared_zero": dd_zero,
    }
    return "\n".join(lines), payload


def _cmd_eulerint(ctx, args):
    span = _span_arg(ctx.algebra, args.span, args.grading)
    omega = None
    for _ in range(20):
        psi = random_cochain(span, ctx.rng, 1, ad_degree=args.ad_degree)
        cand = ce_differential(psi)
        if not cand.is_zero:
            omega = cand
            break
    if omega is None:
        raise UnsupportedElement("sampled coboundaries were all zero")
    phi = euler_integrate(omega)
    recovered = ce_differential(phi) == omega
    lines = _cochain_lines("omega", omega) + _cochain_lines("phi", phi)
    lines.append(f"d phi == omega: {str(recovered).lower()}")
    payload = {
        "degree": 1,
        "ad_degree": args.ad_degree,
        "coboundary": _cochain_records(omega),
        "primitive": _cochain_records(phi),
        "recovered": recovered,
    }
    return "\n".join(lines), payload


def _cmd_hochb(ctx, args):
    chain = _parse_chain(ctx.algebra, args.chain)
    bnd = hochschild_b(chain)
    bb_zero = hochschild_b(bnd).is_zero if bnd.degree >= 1 else True
    text = f"b = {_chain_text(bnd)}\nb^2 == 0: {str(bb_zero).lower()}"
    payload = {
        "input": _chain_records(chain),
        "boundary": _chain_records(bnd),
        "b_squared_zero": bb_zero,
    }
    return text, payload


def _cmd_connesB(ctx, args):
    chain = _parse_chain(ctx.algebra, args.chain)
    out = connes_B(chain)
    text = f"B = {_chain_text(out)}"
    payload = {"input": _chain_records(chain), "connes": _chain_records(out)}
    return text, payload


def _cmd_commspan(ctx, args):
    A = ctx.algebra
    target = parse(args.target, A)
    pairs = []
    for spec in args.pairs:
        parts = _split_top(spec)
        if len(parts) != 2:
            # the third piece, or the end of a one-piece argument
            at = parts[2][0] if len(parts) > 2 else len(spec)
            raise ParseError("a pair must be two comma-separated expressions", at)
        pairs.append(tuple(_parse_piece(A, at, p) for at, p in parts))
    res = commutator_span_check(target, pairs)
    if res.inside:
        combo = [format_scalar(c) for c in res.combination]
        text = "inside: true\ncombination: " + ", ".join(combo)
        return text, {"inside": True, "combination": combo}
    return "inside: false", {"inside": False, "combination": None}


def _cmd_star(ctx, args):
    A = ctx.base
    f = full_symbol(parse(args.left, A))
    g = full_symbol(parse(args.right, A))
    N = ctx.truncation_order(args.order)
    out = symbol_star(f, g, N)
    text = format_gr_element(out)
    return text, {"text": text, "order": N}


def _cmd_assoc(ctx, args):
    A = ctx.base
    N = ctx.truncation_order(args.order)
    count = _triples_arg(args.triples)
    cochains = [star_cochain(A, k) for k in range(1, N + 1)]
    triples = [tuple(random_symbol(A, ctx.rng) for _ in range(3)) for _ in range(count)]
    rep = star_assoc_check(cochains, triples)
    payload = {
        "max_order": rep.max_order,
        "triples": rep.triples,
        "associative": rep.associative,
        "first_nonzero": rep.first_nonzero,
        "text": rep.as_text(),
    }
    return rep.as_text(), payload


def _cmd_rank2(ctx, args):
    A = ctx.base
    rank = A.signature.rank
    alpha = _lattice_arg(args.alpha, rank)
    beta = _lattice_arg(args.beta, rank)
    c12 = _rational_arg(args.c)
    if rank == 1 and c12:
        raise SignatureMismatch("--c pairs g_1 with g_2, and lattice rank 1 has no g_2")
    rows = [[Fraction(0)] * rank for _ in range(rank)]
    if rank > 1:
        rows[0][1], rows[1][0] = c12, -c12
    c = AntisymMatrix(tuple(map(tuple, rows)))
    prod = rank2_product(A, c, alpha, beta)
    comm = rank2_commutator(A, c, alpha, beta)
    text = f"product = {format_gr_element(prod)}\ncommutator = {format_gr_element(comm)}"
    payload = {
        "product": format_gr_element(prod),
        "commutator": format_gr_element(comm),
    }
    return text, payload


def _cmd_tshift(ctx, args):
    A = ctx.base
    rep = t_shift_deform(A, ctx.truncation_order(args.order), args.var)
    payload = {
        "order": rep.order,
        "var": rep.var,
        "classical": format_element(rep.classical),
        # order 0 computes no hbar^1 part: null, not a zero deviation
        "first_order": format_element(rep.first_order) if rep.order else None,
        "text": rep.as_text(),
    }
    return rep.as_text(), payload


def _cmd_mc(ctx, args):
    A = ctx.base
    count = _triples_arg(args.triples)
    m1, m2 = star_cochain(A, 1), star_cochain(A, 2)
    failure = None
    for idx in range(count):
        f, g, h = (random_symbol(A, ctx.rng) for _ in range(3))
        if not mc_residual(m1, m2, f, g, h).is_zero:
            failure = idx
            break
    ok = failure is None
    text = (
        f"maurer-cartan residual zero on {count} triples"
        if ok
        else f"maurer-cartan residual nonzero on triple {failure}"
    )
    return text, {"triples": count, "residual_zero": ok, "first_failure": failure}


def _cmd_selftest(ctx, args):
    from .selftest import run_selftest  # compiled only for this command

    results = run_selftest(ctx.config.seed)
    lines = [r.as_text() for r in results]
    ok = all(r.ok for r in results)
    lines.append(f"selftest: {'ok' if ok else 'FAILED'} ({len(results)} checks)")
    payload = {
        "checks": [
            {"name": r.name, "ok": r.ok, "detail": r.detail} for r in results
        ],
        "ok": ok,
    }
    return "\n".join(lines), payload, 0 if ok else 1


# -- wiring ----------------------------------------------------------------------


class _Context:
    """Session state shared by all commands."""

    def __init__(self, config: SessionConfig):
        self.config = config
        self.algebra = build_algebra(config)
        self.base = build_algebra(config.replace(hbar_order=None, t_shift=False))
        self.rng = random.Random(config.seed)

    def truncation_order(self, order: int | None) -> int:
        """A deformation command's hbar order: --order, else the session's, else 2."""
        if order is None:
            order = self.config.hbar_order if self.config.hbar_order is not None else 2
        if order < 0:
            raise SignatureMismatch("hbar order must be >= 0")
        return order


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes only whole option names for options.

    argparse reads every argument that starts with "-" as an option, so an
    expression such as "-x_1" would never reach the expression parser.  The
    parsers of one command line share ``options``, the option names added to
    them; ``parse_args`` hides the minus of any other argument that starts
    with "-" behind a NUL byte, which no command-line argument can hold,
    until argparse is done.  Negative numbers argparse reads right itself.
    """

    _HIDE = "\0"
    _NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")

    def __init__(self, *args, options: set[str] | None = None, **kwargs):
        self.options = set() if options is None else options
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options.update(action.option_strings)
        return action

    def _hide(self, arg: str) -> str:
        plain = arg[:1] != "-" or arg in ("-", "--") or self._NEGATIVE_NUMBER.fullmatch(arg)
        return arg if plain or arg.split("=")[0] in self.options else self._HIDE + arg

    def error(self, message):
        # usage errors quote arguments raw or as repr; neither shows the NUL,
        # and an escaped line break keeps the error on one line
        message = message.replace(self._HIDE, "").replace(repr(self._HIDE)[1:-1], "")
        raise UsageError(message.replace("\n", "\\n").replace("\r", "\\r"))

    def parse_args(self, argv=None):
        argv = sys.argv[1:] if argv is None else argv
        args = super().parse_args([self._hide(a) for a in argv])
        for name, value in vars(args).items():
            if isinstance(value, str):
                setattr(args, name, value.removeprefix(self._HIDE))
            elif isinstance(value, list):
                setattr(args, name, [v.removeprefix(self._HIDE) for v in value])
        return args


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="expweyl",
        description="exact computation in exponential-polynomial Weyl-type algebras",
    )
    ap.add_argument("--config", help="path to a JSON session config")
    ap.add_argument("--format", choices=("text", "structured"), default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--hbar-order", type=int, default=None, dest="hbar_order")
    sub = ap.add_subparsers(dest="command", required=True)

    def cmd(name, fn, help_text):
        p = sub.add_parser(name, help=help_text, options=ap.options)
        p.set_defaults(fn=fn)
        return p

    p = cmd("normalize", _cmd_normalize, "parse and print the normal form")
    p.add_argument("expr")
    p = cmd("mul", _cmd_mul, "normal-ordered product of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p = cmd("comm", _cmd_comm, "commutator of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    p = cmd("ord", _cmd_ord, "filtration order")
    p.add_argument("expr")
    p = cmd("degree", _cmd_degree, "exponential degree (or power degree)")
    p.add_argument("expr")
    p.add_argument("--power", action="store_true", help="grade by power exponents")
    p = cmd("symbol", _cmd_symbol, "top-order graded symbol")
    p.add_argument("expr")
    p = cmd("grdiag", _cmd_grdiag, "filtration diagnostics for a pair")
    p.add_argument("left")
    p.add_argument("right")
    p = cmd("act", _cmd_act, "apply an operator to a function element")
    p.add_argument("operator")
    p.add_argument("function")
    p = cmd("probe", _cmd_probe, "zero-detection probe through the module action")
    p.add_argument("expr")
    p.add_argument("--maxdeg", type=int, default=4)
    p = cmd("noetherian", _cmd_noetherian, "certify that A*D^(n+1) lies strictly inside A*D^n")
    p.add_argument("n", type=int)
    p = cmd("liebracket", _cmd_liebracket, "witt bracket of two derivations")
    p.add_argument("left")
    p.add_argument("right")
    p = cmd("cespan", _cmd_cespan, "build and describe a bracket-closed span")
    p.add_argument("span", help="preset name (borel, sl2like) or comma-joined derivations")
    p.add_argument("--grading", type=int, default=None)
    p = cmd("ced", _cmd_ced, "differential of a seeded random cochain")
    p.add_argument("span")
    p.add_argument("--degree", type=int, default=1)
    p.add_argument("--grading", type=int, default=None)
    p = cmd("eulerint", _cmd_eulerint, "integrate a seeded random coboundary")
    p.add_argument("span")
    p.add_argument("--ad-degree", type=int, default=1, dest="ad_degree")
    p.add_argument("--grading", type=int, default=None)
    p = cmd("hochb", _cmd_hochb, "Hochschild boundary of a tensor chain")
    p.add_argument("chain", help="comma-joined tensor factors")
    p = cmd("connesB", _cmd_connesB, "Connes B of a tensor chain")
    p.add_argument("chain")
    p = cmd("commspan", _cmd_commspan, "membership in a commutator span")
    p.add_argument("target")
    p.add_argument("pairs", nargs="+", help="each pair as 'P, Q'")
    p = cmd("star", _cmd_star, "truncated star product of two symbols")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--order", type=int, default=None)
    p = cmd("assoc", _cmd_assoc, "associativity defect of the star cochains")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--triples", type=int, default=20)
    p = cmd("rank2", _cmd_rank2, "rank-2 lattice deformation product")
    p.add_argument("alpha", help="lattice exponent, e.g. '1,0'")
    p.add_argument("beta")
    p.add_argument("--c", default="1", help="structure constant c_12")
    p = cmd("tshift", _cmd_tshift, "shifted differentiation rule report")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--var", type=int, default=1)
    p = cmd("mc", _cmd_mc, "Maurer-Cartan residual of the star cochains")
    p.add_argument("--triples", type=int, default=10)
    cmd("selftest", _cmd_selftest, "run every module invariant check")
    return ap


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = load_config(args.config) if args.config else SessionConfig()
        overrides = {}
        if args.format is not None:
            overrides["format"] = args.format
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.hbar_order is not None:
            overrides["hbar_order"] = args.hbar_order
        if overrides:
            config = config.replace(**overrides)
        ctx = _Context(config)
        out = args.fn(ctx, args)
        text, payload = out[0], out[1]
        status = out[2] if len(out) > 2 else 0
    except KernelError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return 1
    except (RecursionError, MemoryError) as exc:
        print(f"error[{type(exc).__name__}]: input exceeds the interpreter's limits", file=sys.stderr)
        return 1
    if config.format == "structured":
        doc = {"schema": SCHEMA, "command": args.command}
        doc.update(payload)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text)
    return status


def run(argv=None) -> int:
    """The process entry: ``main``, then freeze the garbage collector.

    A one-shot process ends with the interpreter's final collection, which
    walks every object alive, most of them built by the sympy import, and
    takes about ten times as long as a bare interpreter's exit.  Frozen
    objects sit in the permanent generation, which that collection skips.
    ``main`` itself changes no global state, so it can run in-process.
    """
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    # Run as the program, this module loads the package and sympy with the collector off
    # (~130 collections walking long-lived objects otherwise), then freezes them so the
    # collector skips them.  A library import keeps the collector as it finds it.
    gc.freeze()
    gc.enable()
    sys.exit(run())
