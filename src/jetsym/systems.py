"""Evolution systems: the definition grammar, parser, and built-ins.

Grammar (one statement per line, ``#`` starts a comment)::

    file   := "system" IDENT line*
    line   := "param" IDENT | "vars" IDENT+ | "eq" IDENT "_t" "=" expr
    expr   := term (("+"|"-") term)*
    term   := factor ("*" factor)*
    factor := base ("^" NAT)?
    base   := NUMBER | IDENT | IDENT "_" "x"+ | IDENT "[" NAT "]"
            | "(" expr ")" | "-" factor
    NUMBER := integer | integer "/" integer

``w_x``, ``w_xx`` and so on name derivatives by repeated x; ``w[k]`` and
the numeric form ``w_k`` name the order-k derivative directly (the
numeric form is what the canonical renderer emits beyond order 2).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .coeffield import RationalFunction, rf
from .errors import (DuplicateEquation, MissingEquation, ParseError,
                     UnknownIdentifier)
from .jetalgebra import DP_ONE, DiffPoly, EvoField, T_GEN, jet


class _EvolutionSystemFields(NamedTuple):
    name: str
    depvars: Tuple[str, ...]
    parameter: Optional[str]
    rhs: EvoField


class EvolutionSystem(_EvolutionSystemFields):
    """Named evolution system: one equation per dependent variable."""

    __slots__ = ()

    # the check sits on a subclass: a NamedTuple body may not define __new__
    def __new__(cls, name: str, depvars: Tuple[str, ...], parameter: Optional[str],
                rhs: EvoField):
        if len(rhs) != len(depvars):
            raise ValueError("component count does not match dependent variables")
        for comp in rhs:
            if any(g == T_GEN for m in comp.terms for g, _ in m):
                raise ValueError("system right-hand side must not contain explicit t")
        return super().__new__(cls, name, depvars, parameter, rhs)

    @classmethod
    def _make(cls, iterable):  # and so _replace: both run the checks of __new__
        return cls(*iterable)

    @property
    def nvars(self) -> int:
        return len(self.depvars)

    def specialize(self, value) -> "EvolutionSystem":
        return self._replace(rhs=self.rhs.specialize(value))


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*/^()[]="


class Token(NamedTuple):
    kind: str  # 'name' | 'int' | 'sym' | 'newline' | 'eof'
    value: str
    line: int
    col: int


def tokenize(text: str) -> list:
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if ch in " \t\r":
                i += 1
                continue
            col = i + 1
            if ch.isalpha():
                j = i + 1
                while j < n and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(Token("name", line[i:j], lineno, col))
                i = j
            elif ch.isdecimal():
                j = i + 1
                while j < n and line[j].isdecimal():
                    j += 1
                tokens.append(Token("int", line[i:j], lineno, col))
                i = j
            elif ch in _SYMBOLS:
                tokens.append(Token("sym", ch, lineno, col))
                i += 1
            else:
                raise ParseError(lineno, col, f"unexpected character {ch!r}")
        if tokens and tokens[-1].kind != "newline":
            tokens.append(Token("newline", "", lineno, len(line) + 1))
    tokens.append(Token("eof", "", len(text.splitlines()) + 1, 1))
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def accept(self, kind, value=None):
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def expect(self, kind, value=None, what=""):
        tok = self.accept(kind, value)
        if tok is None:
            got = self.peek()
            expected = what or (value if value is not None else kind)
            raise ParseError(got.line, got.col,
                             f"expected {expected}, got {got.value or got.kind!r}")
        return tok

    def skip_newlines(self):
        while self.peek().kind == "newline":
            self.next()


# ---------------------------------------------------------------------------
# Expression parser
# ---------------------------------------------------------------------------

class ExprParser:
    """Recursive-descent parser from tokens to DiffPoly.

    ``depvars`` maps variable name to index; ``parameter`` is the single
    declared parameter name, if any.
    """

    def __init__(self, stream: _TokenStream, depvars: dict,
                 parameter: Optional[str]):
        self.ts = stream
        self.depvars = depvars
        self.parameter = parameter

    def parse_expr(self) -> DiffPoly:
        acc = self.parse_term()
        while True:
            if self.ts.accept("sym", "+"):
                acc = acc + self.parse_term()
            elif self.ts.accept("sym", "-"):
                acc = acc - self.parse_term()
            else:
                return acc

    def parse_term(self) -> DiffPoly:
        acc = self.parse_factor()
        while True:
            star = self.ts.accept("sym", "*")
            if not star:
                return acc
            acc = _budgeted_mul(acc, self.parse_factor(), star)

    def parse_factor(self) -> DiffPoly:
        base = self.parse_base()
        caret = self.ts.accept("sym", "^")
        if caret:
            tok = self.ts.expect("int", what="a natural exponent")
            return _dp_pow(base, _nat(tok), caret)
        return base

    def parse_base(self) -> DiffPoly:
        tok = self.ts.peek()
        if tok.kind == "sym" and tok.value == "-":
            self.ts.next()
            return -self.parse_factor()
        if tok.kind == "sym" and tok.value == "(":
            self.ts.next()
            inner = self.parse_expr()
            self.ts.expect("sym", ")")
            return inner
        if tok.kind == "int":
            self.ts.next()
            value = Fraction(_nat(tok))
            if self.ts.peek().kind == "sym" and self.ts.peek().value == "/":
                nxt = self.ts.tokens[self.ts.pos + 1]
                if nxt.kind == "int":
                    self.ts.next()
                    den = _nat(self.ts.next())
                    if not den:
                        raise ParseError(nxt.line, nxt.col, "division by zero")
                    value = Fraction(value.numerator, den)
            return DiffPoly.constant(rf(value))
        if tok.kind == "name":
            self.ts.next()
            return self.resolve_name(tok)
        raise ParseError(tok.line, tok.col,
                         f"expected a number, name, or '(', got {tok.value or tok.kind!r}")

    def resolve_name(self, tok: Token) -> DiffPoly:
        name = tok.value
        if self.parameter is not None and name == self.parameter:
            return DiffPoly.constant(RationalFunction.param())
        root, sep, suffix = name.partition("_")
        order = None
        if root in self.depvars:
            if not sep:
                order = 0
                if self.ts.accept("sym", "["):
                    order = _nat(self.ts.expect("int", what="a derivative order"))
                    self.ts.expect("sym", "]")
            elif suffix and set(suffix) == {"x"}:
                order = len(suffix)
            elif suffix.isdecimal():
                order = _nat(tok, suffix)
        if order is not None:
            try:
                return DiffPoly.var(jet(self.depvars[root], order))
            except ValueError as exc:
                raise ParseError(tok.line, tok.col, str(exc)) from None
        raise UnknownIdentifier(tok.line, tok.col, f"unknown identifier {name!r}")


#: a product, of ``*`` or inside ``^``, is refused when it would multiply
#: more pairs of coefficient words (``RationalFunction.size``) than this
POWER_BUDGET = 10 ** 5


def _nat(tok: Token, digits: Optional[str] = None) -> int:
    """The natural number a token spells (or digits, a part of it)."""
    digits = tok.value if digits is None else digits
    try:
        return int(digits)
    except ValueError:  # past Python's limit on parsed digits
        raise ParseError(tok.line, tok.col,
                         f"a number of {len(digits)} digits is too long") from None


def _size(p: DiffPoly) -> int:
    return sum(c.size() for c in p.terms.values())


def _budgeted_mul(a: DiffPoly, b: DiffPoly, op: Token) -> DiffPoly:
    """a * b, or a ParseError at the operator op past POWER_BUDGET."""
    if _size(a) * _size(b) > POWER_BUDGET:
        kind = "power" if op.value == "^" else "product"
        raise ParseError(op.line, op.col, f"{kind} exceeds the expansion budget")
    return a * b


def _dp_pow(base: DiffPoly, n: int, caret: Token) -> DiffPoly:
    """base^n by repeated squaring, within POWER_BUDGET per product."""
    out = DP_ONE
    cur = base
    while True:
        if n & 1:
            out = _budgeted_mul(out, cur, caret)
        n >>= 1
        if not n:
            return out
        cur = _budgeted_mul(cur, cur, caret)


# ---------------------------------------------------------------------------
# System files
# ---------------------------------------------------------------------------

def parse_system(source: str) -> EvolutionSystem:
    """Parse a system definition; raises ParseError and relatives."""
    ts = _TokenStream(tokenize(source))
    ts.skip_newlines()
    ts.expect("name", "system", what="'system' header")
    name = ts.expect("name", what="a system name").value
    ts.expect("newline", what="end of line")
    depvars: dict = {}
    parameter: Optional[str] = None
    equations: dict = {}
    while True:
        ts.skip_newlines()
        tok = ts.peek()
        if tok.kind == "eof":
            break
        kw = ts.expect("name", what="'vars', 'param', or 'eq'")
        if kw.value == "vars":
            while ts.peek().kind == "name":
                v = ts.next().value
                if v in depvars or v == parameter:
                    raise ParseError(kw.line, kw.col, f"duplicate name {v!r}")
                depvars[v] = len(depvars)
            ts.expect("newline", what="end of line")
        elif kw.value == "param":
            if parameter is not None:
                raise ParseError(kw.line, kw.col, "parameter already declared")
            parameter = ts.expect("name", what="a parameter name").value
            ts.expect("newline", what="end of line")
        elif kw.value == "eq":
            head = ts.expect("name", what="an equation head like w_t")
            root, sep, suffix = head.value.partition("_")
            if not sep or suffix != "t":
                raise ParseError(head.line, head.col,
                                 f"equation head must be <var>_t, got {head.value!r}")
            if root not in depvars:
                raise UnknownIdentifier(head.line, head.col,
                                        f"unknown dependent variable {root!r}")
            if root in equations:
                raise DuplicateEquation(f"duplicate equation for {root!r}")
            ts.expect("sym", "=")
            expr = ExprParser(ts, depvars, parameter).parse_expr()
            ts.expect("newline", what="end of line")
            equations[root] = expr
        else:
            raise ParseError(kw.line, kw.col,
                             f"expected 'vars', 'param', or 'eq', got {kw.value!r}")
    if not depvars:
        raise MissingEquation("no dependent variables declared")
    missing = [v for v in depvars if v not in equations]
    if missing:
        raise MissingEquation(f"no equation for {', '.join(missing)}")
    rhs = EvoField(equations[v] for v in depvars)
    return EvolutionSystem(name, tuple(depvars), parameter, rhs)


def render_system(system: EvolutionSystem) -> str:
    """Canonical text in the definition grammar; reparses identically."""
    lines = [f"system {system.name}", "vars " + " ".join(system.depvars)]
    if system.parameter is not None:
        lines.append(f"param {system.parameter}")
    param = system.parameter or "alpha"
    for i, v in enumerate(system.depvars):
        expr = system.rhs[i].text(system.depvars, param)
        lines.append(f"eq {v}_t = {expr}")
    return "\n".join(lines) + "\n"


def parse_expression(source: str, depvars: Tuple[str, ...],
                     parameter: Optional[str]) -> DiffPoly:
    """Parse a standalone expression over the given variables."""
    ts = _TokenStream(tokenize(source))
    ts.skip_newlines()
    expr = ExprParser(ts, {v: i for i, v in enumerate(depvars)}, parameter).parse_expr()
    ts.skip_newlines()
    tok = ts.peek()
    if tok.kind != "eof":
        raise ParseError(tok.line, tok.col, f"trailing input {tok.value!r}")
    return expr


_BUILTIN_SOURCES = {
    "fs": """
system fs
vars w z
param alpha
eq w_t = w_xx + 8*w*w_x + (2 - 4*alpha)*z*z_x
eq z_t = (1 - 2*alpha)*z_xx - 4*alpha*z*w_x + (4 - 8*alpha)*w*z_x - (4 + 8*alpha)*w^2*z + (-2 + 4*alpha)*z^3
""",
    "ts": """
system ts
vars u v
param alpha
eq u_t = u_xx + (1 - 2*alpha)*v^2
eq v_t = (1 - 2*alpha)*v_xx
""",
    "ts1": """
system ts1
vars u v
param a
eq u_t = a*u_xx + v^2
eq v_t = v_xx
""",
}

_BUILTIN_CACHE: dict = {}


def builtin_system(name: str) -> EvolutionSystem:
    """One of the compiled-in systems: fs, ts, ts1."""
    if name not in _BUILTIN_SOURCES:
        raise KeyError(f"no built-in system named {name!r}")
    if name not in _BUILTIN_CACHE:
        _BUILTIN_CACHE[name] = parse_system(_BUILTIN_SOURCES[name])
    return _BUILTIN_CACHE[name]


def builtin_names() -> Tuple[str, ...]:
    return tuple(_BUILTIN_SOURCES)
