"""Expression parser, star-evaluation, and nonstandard calculus.

Grammar (EBNF):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | atom ['^' exponent]
    exponent := ['-'] integer | '(' ['-'] integer ['/' integer] ')'
    atom     := rational | ident | 'eps' | 'w'
              | 'abs' '(' expr ')' | 'root' '(' expr ',' integer ')'
              | 'O' '(' expr ')' | '(' expr ')'

Rationals are written ``p/q`` (ordinary division) or as decimals with a
finite expansion, which convert exactly.  ``w`` is an alias for ``eps^-1``.
``O(eps^q)`` denotes an unknown tail starting at exponent q, so the
canonical text of any truncated element round-trips through this parser.
At most one free variable may appear.  Reserved names: eps, w, abs, root, O.

Evaluating an expression at a hyperreal point is the star-extension of the
function it defines: on rational inputs it coincides with classical
evaluation, and on points infinitesimally close to c it exposes limits,
continuity and Newton-quotient derivatives as plain arithmetic.

The calculus operations quantify over infinitesimals through a finite probe
set.  For this expression class f(c + d) - f(c) expands as a generalized
power series in d, so shadow agreement on probes of both signs and two
scales decides the full quantifier; this completeness claim is restricted
to the supported grammar and is not a general one.

Parser and evaluator are pure and ASTs immutable; evaluating independent
expressions concurrently is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

from .core import (
    EPS,
    OMEGA,
    Classification,
    HyperReal,
    Precision,
    as_fraction,
)
from .errors import (
    ExactZeroDivisionError,
    HyperrealError,
    InsufficientPrecisionError,
    NonDifferentiableError,
    NotRationalSequenceError,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
    UnresolvedZeroError,
)

RESERVED = ("eps", "w", "abs", "root", "O")


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base class for expression nodes."""

    def __str__(self):
        return to_text(self)


@dataclass(frozen=True)
class Lit(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Const(Expr):
    name: str  # 'eps' or 'w'


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Fraction


@dataclass(frozen=True)
class Root(Expr):
    operand: Expr
    degree: int
    pos: int = field(default=-1, compare=False)


@dataclass(frozen=True)
class Abs(Expr):
    operand: Expr


@dataclass(frozen=True)
class BigO(Expr):
    exponent: Fraction


# ---------------------------------------------------------------------------
# Lexer / parser


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM IDENT OP END
    text: str
    pos: int


def _lex(source: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and source[i + 1].isdigit()):
            start = i
            while i < n and source[i].isdigit():
                i += 1
            if i < n and source[i] == ".":
                i += 1
                while i < n and source[i].isdigit():
                    i += 1
            tokens.append(_Token("NUM", source[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", source[start:i], start))
            continue
        if ch in "+-*/^(),":
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _lex(source)
        self.index = 0
        self.variable: str | None = None

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.peek()
        if token.kind == "OP" and token.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}, found {token.text or 'end of input'!r}", token.pos)

    def at_op(self, *symbols: str) -> bool:
        token = self.peek()
        return token.kind == "OP" and token.text in symbols

    def parse(self) -> Expr:
        node = self.expr()
        token = self.peek()
        if token.kind != "END":
            raise ParseError(f"unexpected trailing input {token.text!r}", token.pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.at_op("+", "-"):
            token = self.advance()
            node = BinOp(token.text, node, self.term(), pos=token.pos)
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.at_op("*", "/"):
            token = self.advance()
            node = BinOp(token.text, node, self.factor(), pos=token.pos)
        return node

    def factor(self) -> Expr:
        if self.at_op("-"):
            self.advance()
            return Neg(self.factor())
        node = self.atom()
        if self.at_op("^"):
            self.advance()
            node = Pow(node, self.exponent())
        return node

    def exponent(self) -> Fraction:
        sign = 1
        if self.at_op("-"):
            self.advance()
            sign = -1
        token = self.peek()
        if token.kind == "NUM":
            self.advance()
            return sign * Fraction(self._integer(token))
        if sign == 1 and self.at_op("("):
            self.advance()
            if self.at_op("-"):
                self.advance()
                sign = -1
            num = self._integer(self.expect_num())
            den = 1
            if self.at_op("/"):
                self.advance()
                den_token = self.expect_num()
                den = self._integer(den_token)
                if den == 0:
                    raise ParseError("exponent denominator must be nonzero", den_token.pos)
            self.expect(")")
            return Fraction(sign * num, den)
        raise ParseError("expected an integer or (p/q) exponent", token.pos)

    def expect_num(self) -> _Token:
        token = self.peek()
        if token.kind != "NUM":
            raise ParseError(f"expected a number, found {token.text or 'end of input'!r}", token.pos)
        return self.advance()

    @staticmethod
    def _integer(token: _Token) -> int:
        if "." in token.text:
            raise ParseError("exponents must be integers", token.pos)
        return int(token.text)

    def atom(self) -> Expr:
        token = self.peek()
        if token.kind == "NUM":
            self.advance()
            return Lit(Fraction(token.text))
        if self.at_op("("):
            self.advance()
            node = self.expr()
            self.expect(")")
            return node
        if token.kind == "IDENT":
            self.advance()
            name = token.text
            if name == "eps":
                return Const("eps")
            if name == "w":
                return Const("w")
            if name == "abs":
                self.expect("(")
                node = self.expr()
                self.expect(")")
                return Abs(node)
            if name == "root":
                self.expect("(")
                node = self.expr()
                self.expect(",")
                degree = self._integer(self.expect_num())
                self.expect(")")
                if degree < 1:
                    raise ParseError("root degree must be positive", token.pos)
                return Root(node, degree, pos=token.pos)
            if name == "O":
                self.expect("(")
                inner = self.expr()
                close = self.expect(")")
                return _order_atom(inner, close.pos)
            if self.variable is None:
                self.variable = name
            elif name != self.variable:
                raise UnknownIdentifierError(
                    f"second variable {name!r}; {self.variable!r} is already the free variable",
                    token.pos,
                )
            return Var(name)
        raise ParseError(f"unexpected token {token.text or 'end of input'!r}", token.pos)


def _order_atom(inner: Expr, pos: int) -> BigO:
    try:
        value = eval_hyper(inner)
    except HyperrealError:
        value = None
    if value is not None and value.is_exact and len(value.terms) == 1 and value.terms[0][1] == 1:
        return BigO(value.terms[0][0])
    raise ParseError("O(...) takes a pure eps power, e.g. O(eps^4)", pos)


def parse_expr(source: str) -> Expr:
    """Parse source text into an expression AST."""
    return _Parser(source).parse()


# ---------------------------------------------------------------------------
# Printing


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_text(node: Expr) -> str:
    return _render(node, 0)


def _render(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Lit):
        text = str(node.value)
        return f"({text})" if node.value < 0 and parent_prec > 0 else text
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Const):
        return node.name
    if isinstance(node, Neg):
        inner = _render(node.operand, 3)
        text = f"-{inner}"
        return f"({text})" if parent_prec > 1 else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        left = _render(node.left, prec)
        right = _render(node.right, prec + 1)
        text = f"{left} {node.op} {right}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Pow):
        base = _render(node.base, 4)
        if isinstance(node.base, Pow):  # the grammar allows one '^' per factor
            base = f"({base})"
        e = node.exponent
        suffix = str(e) if e.denominator == 1 else f"({e})"
        return f"{base}^{suffix}"
    if isinstance(node, Root):
        return f"root({_render(node.operand, 0)}, {node.degree})"
    if isinstance(node, Abs):
        return f"abs({_render(node.operand, 0)})"
    if isinstance(node, BigO):
        from .core import _power_text

        return f"O({_power_text(node.exponent)})"
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# Evaluation


ExprLike = Union[Expr, str]


def _as_expr(f: ExprLike) -> Expr:
    return parse_expr(f) if isinstance(f, str) else f


def eval_hyper(
    f: ExprLike,
    at: HyperReal | Fraction | int | None = None,
    precision: Precision | int | None = None,
) -> HyperReal:
    """Evaluate an expression over the hyperreal field.

    ``at`` supplies the value of the free variable, if any.  Division and
    roots truncate at the given relative precision; everything else is
    exact, so rational inputs reproduce classical evaluation exactly.
    """
    node = _as_expr(f)
    prec = Precision.of(precision)
    point: HyperReal | None
    if at is None:
        point = None
    elif isinstance(at, HyperReal):
        point = at
    else:
        point = HyperReal.from_rational(as_fraction(at))
    return _eval(node, point, prec)


def _eval(node: Expr, point: HyperReal | None, prec: Precision) -> HyperReal:
    if isinstance(node, Lit):
        return HyperReal.from_rational(node.value)
    if isinstance(node, Var):
        if point is None:
            raise UnboundVariableError(f"no value supplied for variable {node.name!r}")
        return point
    if isinstance(node, Const):
        return EPS if node.name == "eps" else OMEGA
    if isinstance(node, Neg):
        return -_eval(node.operand, point, prec)
    if isinstance(node, BinOp):
        left = _eval(node.left, point, prec)
        right = _eval(node.right, point, prec)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if right.is_exact_zero:
            where = f" (at position {node.pos})" if node.pos >= 0 else ""
            raise ExactZeroDivisionError(f"division by exact zero{where}")
        return left * right.inv(prec)
    if isinstance(node, Pow):
        base = _eval(node.base, point, prec)
        num = node.exponent.numerator
        den = node.exponent.denominator
        powered = base ** abs(num)
        if num < 0:
            powered = powered.inv(prec)
        return powered if den == 1 else powered.root(den, prec)
    if isinstance(node, Root):
        return _eval(node.operand, point, prec).root(node.degree, prec)
    if isinstance(node, Abs):
        return abs(_eval(node.operand, point, prec))
    if isinstance(node, BigO):
        return HyperReal((), node.exponent)
    raise TypeError(f"not an expression node: {node!r}")


def free_variable(f: ExprLike) -> str | None:
    """Name of the expression's free variable, or None."""
    node = _as_expr(f)
    found: list[str] = []

    def walk(n: Expr):
        if isinstance(n, Var) and n.name not in found:
            found.append(n.name)
        for attr in ("operand", "left", "right", "base"):
            child = getattr(n, attr, None)
            if isinstance(child, Expr):
                walk(child)

    walk(node)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# Newton quotients and derivatives


def newton_quotient(
    f: ExprLike,
    at: Fraction | int | HyperReal,
    increment: HyperReal,
    precision: Precision | int | None = None,
) -> HyperReal:
    """(f(x + e) - f(x)) / e for an infinitesimal, nonzero increment e."""
    if not increment.terms or not increment.is_infinitesimal():
        raise ValueError("increment must be a nonzero infinitesimal")
    node = _as_expr(f)
    prec = Precision.of(precision)
    base = at if isinstance(at, HyperReal) else HyperReal.from_rational(as_fraction(at))
    high = eval_hyper(node, base + increment, prec)
    low = eval_hyper(node, base, prec)
    return (high - low) * increment.inv(prec)


_PROBES = (
    ("eps", EPS),
    ("-eps", -EPS),
    ("eps^2", EPS * EPS),
    ("-eps^2", -(EPS * EPS)),
    ("2*eps", EPS + EPS),
)


def derivative(
    f: ExprLike,
    at: Fraction | int,
    precision: Precision | int | None = None,
) -> Fraction:
    """Shadow of the Newton quotient when all probe quotients agree.

    Probes the quotient at eps, -eps, eps^2, -eps^2 and 2*eps; the result
    is returned only if every quotient is limited with the same shadow.
    ``f(at)`` is evaluated once, after ``f(at + eps)``, and shared by every
    probe.  Raises NonDifferentiableError (with witnesses) otherwise, and
    InsufficientPrecisionError when a shadow cannot be determined at the
    current relative order.
    """
    node = _as_expr(f)
    prec = Precision.of(precision)
    base = HyperReal.from_rational(as_fraction(at))
    low: HyperReal | None = None
    shadows: list[Fraction] = []
    witnesses: list[tuple[str, str]] = []
    for label, probe in _PROBES:
        try:
            high = eval_hyper(node, base + probe, prec)
            if low is None:
                low = eval_hyper(node, base, prec)
            quotient = (high - low) * probe.inv(prec)
        except (ExactZeroDivisionError, ZeroDivisionError):
            raise NonDifferentiableError(
                f"function undefined at probe {label}", witnesses=[(label, "undefined")]
            ) from None
        try:
            value = quotient.shadow()
        except InsufficientPrecisionError:
            raise
        except UnresolvedZeroError as exc:
            raise InsufficientPrecisionError(str(exc)) from None
        except HyperrealError:
            witnesses.append((label, "unlimited quotient"))
            continue
        shadows.append(value)
        witnesses.append((label, str(value)))
    if len(shadows) < len(_PROBES):
        raise NonDifferentiableError("a Newton quotient is unlimited", witnesses=witnesses)
    if any(s != shadows[0] for s in shadows):
        raise NonDifferentiableError("Newton quotients disagree", witnesses=witnesses)
    return shadows[0]


# ---------------------------------------------------------------------------
# Limits and continuity


@dataclass(frozen=True)
class LimitResult:
    """Outcome of a limit computation."""

    kind: str  # finite | plus-infinity | minus-infinity | no-limit | undecidable
    value: Fraction | None = None
    witnesses: tuple[tuple[str, str], ...] = ()
    reason: str | None = None

    @classmethod
    def finite(cls, value) -> "LimitResult":
        return cls("finite", value=as_fraction(value))

    @classmethod
    def plus_infinity(cls) -> "LimitResult":
        return cls("plus-infinity")

    @classmethod
    def minus_infinity(cls) -> "LimitResult":
        return cls("minus-infinity")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


def _seq_compatible(node: Expr) -> bool:
    if isinstance(node, (Lit, Var)):
        return True
    if isinstance(node, Neg):
        return _seq_compatible(node.operand)
    if isinstance(node, BinOp):
        return _seq_compatible(node.left) and _seq_compatible(node.right)
    if isinstance(node, Pow):
        return node.exponent.denominator == 1 and _seq_compatible(node.base)
    return False


def limit_seq(s: ExprLike, precision: Precision | int | None = None) -> LimitResult:
    """Limit of a rational sequence: evaluate at n = w and take the shadow."""
    node = _as_expr(s)
    if not _seq_compatible(node):
        raise NotRationalSequenceError(
            "sequence limits need a rational function of n (no eps, w, abs or root)"
        )
    prec = Precision.of(precision)
    try:
        value = eval_hyper(node, OMEGA, prec)
        tag = value.classify()
    except (ExactZeroDivisionError, ZeroDivisionError):
        return LimitResult("no-limit", reason="sequence undefined at unlimited indices")
    except UnresolvedZeroError as exc:
        return LimitResult("undecidable", reason=str(exc))
    if tag.is_limited:
        try:
            return LimitResult.finite(value.shadow())
        except InsufficientPrecisionError as exc:
            return LimitResult("undecidable", reason=str(exc))
    if tag is Classification.POSITIVE_UNLIMITED:
        return LimitResult.plus_infinity()
    return LimitResult.minus_infinity()


PLUS_INF = "+inf"
MINUS_INF = "-inf"


def _point_probes(c: Fraction, side: str) -> list[tuple[str, HyperReal]]:
    base = HyperReal.from_rational(c)
    eps2 = EPS * EPS
    probes = [
        ("c + eps", base + EPS, 1),
        ("c - eps", base - EPS, -1),
        ("c + eps^2", base + eps2, 1),
    ]
    if side == "both":
        return [(label, point) for label, point, _ in probes]
    wanted = 1 if side == "right" else -1
    return [(label, point) for label, point, direction in probes if direction == wanted]


def limit_fun(
    f: ExprLike,
    at: Fraction | int | str,
    side: str = "both",
    precision: Precision | int | None = None,
) -> LimitResult:
    """Limit of an expression at a point or at +/- infinity.

    At a rational point c the probe set is {c + eps, c - eps, c + eps^2}
    (filtered by ``side``); at +infinity it is {w, 2w, w^2} and the mirror
    image at -infinity.  The limit is the common shadow of the probe
    values; matching unlimited signs give the infinite verdicts.
    """
    if side not in ("both", "left", "right"):
        raise ValueError("side must be 'both', 'left' or 'right'")
    node = _as_expr(f)
    prec = Precision.of(precision)
    if at == PLUS_INF:
        probes = [("w", OMEGA), ("2*w", OMEGA + OMEGA), ("w^2", OMEGA * OMEGA)]
    elif at == MINUS_INF:
        probes = [("-w", -OMEGA), ("-2*w", -(OMEGA + OMEGA)), ("-w^2", -(OMEGA * OMEGA))]
    else:
        probes = _point_probes(as_fraction(at), side)

    outcomes: list[tuple[str, Classification, Fraction | None]] = []
    witnesses: list[tuple[str, str]] = []
    for label, point in probes:
        try:
            value = eval_hyper(node, point, prec)
            tag = value.classify()
        except (ExactZeroDivisionError, ZeroDivisionError):
            return LimitResult(
                "no-limit", witnesses=((label, "undefined"),), reason="undefined at probe"
            )
        except UnresolvedZeroError as exc:
            return LimitResult("undecidable", reason=str(exc))
        if tag.is_limited:
            try:
                sh = value.shadow()
            except InsufficientPrecisionError as exc:
                return LimitResult("undecidable", reason=str(exc))
            outcomes.append((label, tag, sh))
            witnesses.append((label, str(sh)))
        else:
            outcomes.append((label, tag, None))
            witnesses.append((label, tag.value))

    first = outcomes[0]
    if all(o[2] is not None for o in outcomes):
        if all(o[2] == first[2] for o in outcomes):
            return LimitResult.finite(first[2])
    elif all(o[2] is None for o in outcomes):
        if all(o[1] is Classification.POSITIVE_UNLIMITED for o in outcomes):
            return LimitResult.plus_infinity()
        if all(o[1] is Classification.NEGATIVE_UNLIMITED for o in outcomes):
            return LimitResult.minus_infinity()
    disagreeing = _two_disagreeing(witnesses)
    return LimitResult("no-limit", witnesses=disagreeing, reason="probe values disagree")


def _two_disagreeing(witnesses: list[tuple[str, str]]) -> tuple[tuple[str, str], ...]:
    for other in witnesses[1:]:
        if other[1] != witnesses[0][1]:
            return (witnesses[0], other)
    return tuple(witnesses[:2])


def continuity_at(
    f: ExprLike,
    at: Fraction | int,
    precision: Precision | int | None = None,
) -> bool:
    """True when f maps the halo of c into the halo of f(c).

    Checked on the probe set {eps, -eps, eps^2, -eps^2}.  A division by an
    exact zero at c or at a probe counts as "undefined" and yields False.
    Raises InsufficientPrecisionError when halo membership is undecidable
    at the current relative order.
    """
    node = _as_expr(f)
    prec = Precision.of(precision)
    c = as_fraction(at)
    try:
        center = eval_hyper(node, c, prec)
    except (ExactZeroDivisionError, ZeroDivisionError):
        return False
    eps2 = EPS * EPS
    for delta in (EPS, -EPS, eps2, -eps2):
        try:
            value = eval_hyper(node, HyperReal.from_rational(c) + delta, prec)
        except (ExactZeroDivisionError, ZeroDivisionError):
            return False
        try:
            if not (value - center).is_infinitesimal():
                return False
        except UnresolvedZeroError as exc:
            raise InsufficientPrecisionError(str(exc)) from None
    return True
