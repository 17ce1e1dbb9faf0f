"""A small arithmetic expression language for kernels k(x, y) and
coefficient entries m(x) in configuration files.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds
                                         # tighter than unary minus
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Variables are x and y; named constants pi and e; functions exp, abs,
sqrt, sin, cos, min, max, pow.  Evaluation is IEEE double, elementwise
over numpy arrays when array bindings are supplied.  A negative base
with a fractional exponent, sqrt of a negative, and division by zero
are reported as evaluation errors carrying the subexpression offset
rather than produced as NaN.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

FUNCTIONS = {
    "exp": 1,
    "abs": 1,
    "sqrt": 1,
    "sin": 1,
    "cos": 1,
    "min": 2,
    "max": 2,
    "pow": 2,
}

CONSTANTS = {"pi": np.pi, "e": np.e}

VARIABLES = ("x", "y")


# --- abstract syntax ---------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Const:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Expr"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    offset: int = field(default=0, compare=False)


Expr = Num | Var | Const | Neg | Bin | Call


# --- tokenizer ---------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos:].strip() == "":
            break
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.lastgroup is None:
            at = pos + len(text[pos:]) - len(text[pos:].lstrip())
            raise ExprSyntaxError(f"unexpected character {text[at]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# --- parser ------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprSyntaxError(f"expected {op!r}", off)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected {val!r} after expression", off)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                node = Bin(val, node, self.term(), offset=off)
            else:
                return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            kind, val, off = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                node = Bin(val, node, self.unary(), offset=off)
            else:
                return node

    def unary(self) -> Expr:
        kind, val, off = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.unary(), offset=off)
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        kind, val, off = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            # right-associative; exponent may carry its own unary minus
            node = Bin("^", node, self.unary(), offset=off)
        return node

    def atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val), offset=off)
        if kind == "name":
            nk, nv, noff = self.peek()
            if nk == "op" and nv == "(":
                if val not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {val!r}", off)
                self.advance()
                args = [self.expr()]
                while True:
                    k2, v2, o2 = self.peek()
                    if k2 == "op" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                if len(args) != FUNCTIONS[val]:
                    raise ExprSyntaxError(
                        f"{val} expects {FUNCTIONS[val]} argument(s), got {len(args)}",
                        off)
                return Call(val, tuple(args), offset=off)
            if val in CONSTANTS:
                return Const(val, offset=off)
            if val in VARIABLES:
                return Var(val, offset=off)
            raise ExprSyntaxError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError("expected operand", off)


def parse(text: str) -> Expr:
    """Parse source text into an expression tree."""
    return _Parser(text).parse()


# --- evaluation --------------------------------------------------------

def _check_domain(node, cond, message):
    if np.any(cond):
        raise ExprEvalError(message, node.offset)


def eval_expr(node: Expr, x=None, y=None):
    """Evaluate a tree with the given bindings.

    Scalars in, float out; numpy arrays in, elementwise array out.
    """
    env = {}
    if x is not None:
        env["x"] = x
    if y is not None:
        env["y"] = y
    result = _eval(node, env)
    if np.ndim(result) == 0:
        return float(result)
    return result


def _eval(node, env):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Const):
        return CONSTANTS[node.name]
    if isinstance(node, Var):
        if node.name not in env:
            raise ExprEvalError(f"unbound variable {node.name!r}", node.offset)
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, Bin):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            _check_domain(node, np.asarray(b) == 0, "division by zero")
            return a / b
        # '^'
        bb = np.asarray(b)
        frac = bb != np.floor(bb)
        _check_domain(node, (np.asarray(a) < 0) & frac,
                      "negative base with non-integer exponent")
        return np.power(a, b)
    if isinstance(node, Call):
        args = [_eval(arg, env) for arg in node.args]
        if node.func == "exp":
            return np.exp(args[0])
        if node.func == "abs":
            return np.abs(args[0])
        if node.func == "sqrt":
            _check_domain(node, np.asarray(args[0]) < 0,
                          "sqrt of a negative number")
            return np.sqrt(args[0])
        if node.func == "sin":
            return np.sin(args[0])
        if node.func == "cos":
            return np.cos(args[0])
        if node.func == "min":
            return np.minimum(args[0], args[1])
        if node.func == "max":
            return np.maximum(args[0], args[1])
        # pow: same domain rule as '^'
        bb = np.asarray(args[1])
        frac = bb != np.floor(bb)
        _check_domain(node, (np.asarray(args[0]) < 0) & frac,
                      "negative base with non-integer exponent")
        return np.power(args[0], args[1])
    raise TypeError(f"not an expression node: {node!r}")


# --- canonical printer -------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _print(node) -> tuple[str, int]:
    if isinstance(node, Num):
        return format(node.value, ".17g"), _PREC["atom"]
    if isinstance(node, (Var, Const)):
        return node.name, _PREC["atom"]
    if isinstance(node, Neg):
        s, p = _print(node.operand)
        if p < _PREC["neg"]:
            s = f"({s})"
        return f"-{s}", _PREC["neg"]
    if isinstance(node, Call):
        parts = [_print(a)[0] for a in node.args]
        return f"{node.func}({', '.join(parts)})", _PREC["atom"]
    # Bin
    lp = _PREC[node.op]
    ls, lprec = _print(node.left)
    rs, rprec = _print(node.right)
    if node.op == "^":
        # right-associative; parenthesize a left operand of equal or
        # lower precedence (including unary minus)
        if lprec <= lp:
            ls = f"({ls})"
        if rprec < lp:
            rs = f"({rs})"
    else:
        if lprec < lp:
            ls = f"({ls})"
        # left-associative: a right operand of equal precedence must keep
        # its parens or the reparse would rebuild a left-leaning tree
        if rprec <= lp:
            rs = f"({rs})"
    return f"{ls} {node.op} {rs}", lp


def to_text(node: Expr) -> str:
    """Canonical textual form; parse(to_text(e)) == e."""
    return _print(node)[0]
