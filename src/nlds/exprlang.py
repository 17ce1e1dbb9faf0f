"""A small arithmetic expression language for kernels k(x, y) and
coefficient entries m(x) in configuration files.

Grammar (whitespace insignificant):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds
                                         # tighter than unary minus
    atom   := NUMBER | NAME | NAME '(' expr (',' expr)* ')' | '(' expr ')'

Variables are x and y and the named constants pi and e.  Three tables
define the rest: FUNCTIONS maps each function name to the numpy
function it calls, whose nin is its arity; OPERATORS maps each binary
operator to its function; DOMAIN holds the domain rule of each function
that has one.  A negative base with a fractional exponent (for '^' and
pow alike), sqrt of a negative, and division by zero are reported as
evaluation errors carrying the offset of the operator or function name
rather than produced as NaN.  Evaluation is IEEE double, elementwise
over numpy arrays when array bindings are supplied.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ExprEvalError, ExprSyntaxError

FUNCTIONS = {"exp": np.exp, "abs": np.abs, "sqrt": np.sqrt, "sin": np.sin,
             "cos": np.cos, "min": np.minimum, "max": np.maximum,
             "pow": np.power}

# Python's operators, not ufuncs: on Python floats a ufunc warns of an
# overflow to inf that they give silently.  '^' is np.power, since **
# raises on overflow and gives a complex for a negative base.
OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
             "/": operator.truediv, "^": np.power}

# function -> (message, fault): arguments for which fault(*args) holds
# at any point lie outside the function's domain
DOMAIN = {
    operator.truediv: ("division by zero", lambda a, b: b == 0),
    np.sqrt: ("sqrt of a negative number", lambda a: a < 0),
    np.power: ("negative base with non-integer exponent",
               lambda a, b: (a < 0) & (b != np.floor(b))),
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

    def left_assoc(self, operand, ops: str) -> Expr:
        """operand ((one of ops) operand)*, grouped from the left."""
        node = operand()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or val not in ops:
                return node
            self.advance()
            node = Bin(val, node, operand(), offset=off)

    def expr(self) -> Expr:
        return self.left_assoc(self.term, "+-")

    def term(self) -> Expr:
        return self.left_assoc(self.unary, "*/")

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
                while self.peek()[:2] == ("op", ","):
                    self.advance()
                    args.append(self.expr())
                self.expect_op(")")
                nin = FUNCTIONS[val].nin
                if len(args) != nin:
                    raise ExprSyntaxError(f"{val} expects {nin} argument(s), "
                                          f"got {len(args)}", off)
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

def eval_expr(node: Expr, x=None, y=None):
    """Evaluate a tree with the given bindings.

    Scalar bindings give a float.  Array bindings give a float array of
    the bindings' broadcast shape, whichever variables the tree reads; it
    is a read-only view, so a caller that keeps or writes it copies it.
    """
    env = {name: v for name, v in (("x", x), ("y", y)) if v is not None}
    result = _eval(node, env)
    shape = np.broadcast(*env.values()).shape
    if not shape:
        return float(result)
    return np.broadcast_to(result, shape)


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
        fn, operands = OPERATORS[node.op], (node.left, node.right)
    elif isinstance(node, Call):
        fn, operands = FUNCTIONS[node.func], node.args
    else:
        raise TypeError(f"not an expression node: {node!r}")
    args = [_eval(arg, env) for arg in operands]
    rule = DOMAIN.get(fn)
    if rule is not None and np.any(rule[1](*args)):
        raise ExprEvalError(rule[0], node.offset)
    return fn(*args)
