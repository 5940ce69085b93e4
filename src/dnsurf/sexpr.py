"""Expression language for surface components: parse, differentiate, lower.

Grammar (precedence high to low: ^, unary -, * /, + -; left associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ['-'] base ('^' int)?
    base   := number | 'pi' | 't' | 'j' | func '(' expr ')' | '(' expr ')'
    func   := sin | cos | sinh | cosh | exp

Only entire functions are admitted, so the componentwise null-basis
extension of any well-formed expression is its unique holomorphic
extension.  The literal j lowers to the constants -1 / +1 on the two null
axes (j = qbar - q).
"""

from __future__ import annotations

import math

import numpy as np

from .dnum import DNum, J, elementary
from .errors import ParseError
from .value import Value, setfield

FUNCTIONS = ("sin", "cos", "sinh", "cosh", "exp")

_NP_FUNC = {name: getattr(np, name) for name in FUNCTIONS}


# -- AST -----------------------------------------------------------------

class Expr(Value):
    __slots__ = ()


class Num(Expr):
    __slots__ = _fields = ("value",)

    def __init__(self, value: float):
        setfield(self, "value", value)


class Pi(Expr):
    __slots__ = ()


class Var(Expr):
    """The variable t."""

    __slots__ = ()


class Jay(Expr):
    """The hyperbolic unit j."""

    __slots__ = ()


class Neg(Expr):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Expr):
        setfield(self, "arg", arg)


class Bin(Expr):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        setfield(self, "op", op)  # one of + - * /
        setfield(self, "left", left)
        setfield(self, "right", right)


class Pow(Expr):
    __slots__ = _fields = ("base", "exp")

    def __init__(self, base: Expr, exp: int):
        setfield(self, "base", base)
        setfield(self, "exp", exp)


class App(Expr):
    __slots__ = _fields = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        setfield(self, "func", func)
        setfield(self, "arg", arg)


# -- folding constructors ------------------------------------------------

def _num(e) -> float | None:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Neg):
        v = _num(e.arg)
        return None if v is None else -v
    return None


def add(a: Expr, b: Expr) -> Expr:
    va, vb = _num(a), _num(b)
    if va is not None and vb is not None:
        return Num(va + vb)
    if va == 0.0:
        return b
    if vb == 0.0:
        return a
    return Bin("+", a, b)


def sub(a: Expr, b: Expr) -> Expr:
    va, vb = _num(a), _num(b)
    if va is not None and vb is not None:
        return Num(va - vb)
    if vb == 0.0:
        return a
    if va == 0.0:
        return neg(b)
    return Bin("-", a, b)


def mul(a: Expr, b: Expr) -> Expr:
    va, vb = _num(a), _num(b)
    if va is not None and vb is not None:
        return Num(va * vb)
    if va == 0.0 or vb == 0.0:
        return Num(0.0)
    if va == 1.0:
        return b
    if vb == 1.0:
        return a
    if isinstance(b, Neg):
        return mul(neg(a), b.arg)
    return Bin("*", a, b)


def div(a: Expr, b: Expr) -> Expr:
    va, vb = _num(a), _num(b)
    if vb is not None and va is not None and vb != 0.0:
        return Num(va / vb)
    if va == 0.0:
        return Num(0.0)
    if vb == 1.0:
        return a
    return Bin("/", a, b)


def neg(a: Expr) -> Expr:
    va = _num(a)
    if va is not None:
        return Num(-va)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def powi(a: Expr, k: int) -> Expr:
    if k == 0:
        return Num(1.0)
    if k == 1:
        return a
    va = _num(a)
    if va is not None:
        return Num(va**k)
    return Pow(a, k)


# -- parser --------------------------------------------------------------

class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1


def parse(text: str) -> Expr:
    """Parse an expression in the variable t; errors carry byte offsets."""
    toks = _Tokens(text)
    e = _parse_expr(toks)
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError(f"unexpected trailing input {text[toks.pos:]!r}", toks.pos)
    return e


def _parse_expr(toks: _Tokens) -> Expr:
    e = _parse_term(toks)
    while toks.peek() in ("+", "-"):
        op = toks.peek()
        toks.pos += 1
        rhs = _parse_term(toks)
        e = Bin(op, e, rhs)
    return e


def _parse_term(toks: _Tokens) -> Expr:
    e = _parse_factor(toks)
    while toks.peek() in ("*", "/"):
        op = toks.peek()
        op_pos = toks.pos
        toks.pos += 1
        rhs = _parse_factor(toks)
        if op == "/" and _is_literal_zero(rhs):
            raise ParseError("division by the literal 0", op_pos)
        e = Bin(op, e, rhs)
    return e


def _is_literal_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _parse_factor(toks: _Tokens) -> Expr:
    if toks.peek() == "-":
        toks.pos += 1
        return Neg(_parse_factor(toks))
    e = _parse_base(toks)
    if toks.peek() == "^":
        toks.pos += 1
        e = Pow(e, _parse_int(toks))
    return e


def _parse_int(toks: _Tokens) -> int:
    toks.skip_ws()
    start = toks.pos
    text = toks.text
    while toks.pos < len(text) and text[toks.pos].isdigit():
        toks.pos += 1
    if toks.pos == start:
        raise ParseError("expected integer exponent", start)
    if toks.pos < len(text) and text[toks.pos] in ".eE":
        raise ParseError("non-integer exponent", start)
    return int(text[start : toks.pos])


def _parse_base(toks: _Tokens) -> Expr:
    ch = toks.peek()
    if ch == "":
        raise ParseError("unexpected end of input", toks.pos)
    if ch == "(":
        open_pos = toks.pos
        toks.pos += 1
        e = _parse_expr(toks)
        if toks.peek() != ")":
            raise ParseError("unbalanced parentheses", open_pos)
        toks.pos += 1
        return e
    if ch.isdigit() or ch == ".":
        return _parse_number(toks)
    if ch.isalpha():
        return _parse_ident(toks)
    raise ParseError(f"unexpected character {ch!r}", toks.pos)


def _parse_number(toks: _Tokens) -> Expr:
    text = toks.text
    start = toks.pos
    i = toks.pos
    while i < len(text) and (text[i].isdigit() or text[i] == "."):
        i += 1
    if i < len(text) and text[i] in "eE":
        k = i + 1
        if k < len(text) and text[k] in "+-":
            k += 1
        if k < len(text) and text[k].isdigit():
            i = k
            while i < len(text) and text[i].isdigit():
                i += 1
    try:
        value = float(text[start:i])
    except ValueError:
        raise ParseError(f"malformed number {text[start:i]!r}", start) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {text[start:i]!r}", start)
    toks.pos = i
    return Num(value)


def _parse_ident(toks: _Tokens) -> Expr:
    text = toks.text
    start = toks.pos
    i = toks.pos
    while i < len(text) and text[i].isalnum():
        i += 1
    name = text[start:i]
    toks.pos = i
    if name == "t":
        return Var()
    if name == "j":
        return Jay()
    if name == "pi":
        return Pi()
    if name in FUNCTIONS:
        toks.expect("(")
        arg = _parse_expr(toks)
        if toks.peek() != ")":
            raise ParseError("unbalanced parentheses", start)
        toks.pos += 1
        return App(name, arg)
    raise ParseError(f"unknown identifier {name!r}", start)


# -- serialization -------------------------------------------------------

def serialize(e: Expr) -> str:
    return _ser(e, 0)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _ser(e: Expr, prec: int) -> str:
    if isinstance(e, Num):
        return f"{e.value:.17g}"
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Jay):
        return "j"
    if isinstance(e, Neg):
        s = "-" + _ser(e.arg, 3)
        return f"({s})" if prec > 2 else s
    if isinstance(e, Bin):
        p = _PREC[e.op]
        s = _ser(e.left, p) + e.op + _ser(e.right, p + 1)
        return f"({s})" if prec > p else s
    if isinstance(e, Pow):
        return _ser(e.base, 4) + f"^{e.exp}"
    if isinstance(e, App):
        return f"{e.func}({_ser(e.arg, 0)})"
    raise TypeError(f"not an Expr: {e!r}")


# -- calculus ------------------------------------------------------------

_DERIV = {
    "sin": lambda a: App("cos", a),
    "cos": lambda a: neg(App("sin", a)),
    "sinh": lambda a: App("cosh", a),
    "cosh": lambda a: App("sinh", a),
    "exp": lambda a: App("exp", a),
}


def diff_t(e: Expr) -> Expr:
    """Symbolic derivative with respect to t; j is a constant."""
    if isinstance(e, (Num, Pi, Jay)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return neg(diff_t(e.arg))
    if isinstance(e, Bin):
        da, db = diff_t(e.left), diff_t(e.right)
        if e.op == "+":
            return add(da, db)
        if e.op == "-":
            return sub(da, db)
        if e.op == "*":
            return add(mul(da, e.right), mul(e.left, db))
        return div(sub(mul(da, e.right), mul(e.left, db)), powi(e.right, 2))
    if isinstance(e, Pow):
        return mul(mul(Num(float(e.exp)), powi(e.base, e.exp - 1)), diff_t(e.base))
    if isinstance(e, App):
        return mul(_DERIV[e.func](e.arg), diff_t(e.arg))
    raise TypeError(f"not an Expr: {e!r}")


def subst_j(e: Expr, jval: float) -> Expr:
    """Replace j by a real constant, folding as we go."""
    if isinstance(e, Jay):
        return Num(jval)
    if isinstance(e, (Num, Pi, Var)):
        return e
    if isinstance(e, Neg):
        return neg(subst_j(e.arg, jval))
    if isinstance(e, Bin):
        a, b = subst_j(e.left, jval), subst_j(e.right, jval)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](a, b)
    if isinstance(e, Pow):
        return powi(subst_j(e.base, jval), e.exp)
    if isinstance(e, App):
        return App(e.func, subst_j(e.arg, jval))
    raise TypeError(f"not an Expr: {e!r}")


def subst_t(e: Expr, repl: Expr) -> Expr:
    """Replace the variable t by another expression."""
    if isinstance(e, Var):
        return repl
    if isinstance(e, (Num, Pi, Jay)):
        return e
    if isinstance(e, Neg):
        return neg(subst_t(e.arg, repl))
    if isinstance(e, Bin):
        a, b = subst_t(e.left, repl), subst_t(e.right, repl)
        return {"+": add, "-": sub, "*": mul, "/": div}[e.op](a, b)
    if isinstance(e, Pow):
        return powi(subst_t(e.base, repl), e.exp)
    if isinstance(e, App):
        return App(e.func, subst_t(e.arg, repl))
    raise TypeError(f"not an Expr: {e!r}")


# -- evaluation ----------------------------------------------------------

def eval_expr(e: Expr, t, jval=None):
    """Evaluate e at t.

    t may be a float, a numpy array (with jval = +-1 fixed by the caller),
    or a DNum for direct evaluation over the algebra (jval defaults to j).
    """
    if isinstance(t, DNum):
        return _eval_dnum(e, t)
    return _eval_real(e, t, jval if jval is not None else 1.0)


def _eval_real(e: Expr, x, jval: float):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return x
    if isinstance(e, Jay):
        return jval
    if isinstance(e, Neg):
        return -_eval_real(e.arg, x, jval)
    if isinstance(e, Bin):
        a = _eval_real(e.left, x, jval)
        b = _eval_real(e.right, x, jval)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Pow):
        return _eval_real(e.base, x, jval) ** e.exp
    if isinstance(e, App):
        return _NP_FUNC[e.func](_eval_real(e.arg, x, jval))
    raise TypeError(f"not an Expr: {e!r}")


def _eval_dnum(e: Expr, t: DNum) -> DNum:
    if isinstance(e, Num):
        return DNum(e.value)
    if isinstance(e, Pi):
        return DNum(math.pi)
    if isinstance(e, Var):
        return t
    if isinstance(e, Jay):
        return J
    if isinstance(e, Neg):
        return -_eval_dnum(e.arg, t)
    if isinstance(e, Bin):
        a = _eval_dnum(e.left, t)
        b = _eval_dnum(e.right, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        return a / b
    if isinstance(e, Pow):
        return DNum.from_null(_eval_dnum(e.base, t).p ** e.exp, _eval_dnum(e.base, t).m ** e.exp)
    if isinstance(e, App):
        return elementary(e.func, _eval_dnum(e.arg, t))
    raise TypeError(f"not an Expr: {e!r}")
