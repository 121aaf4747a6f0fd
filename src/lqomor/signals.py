"""Recursive-descent parser for scalar input-signal expressions.

Grammar (binding tightest last):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?          right associative
    primary := NUMBER | 't' | NAME '(' expr ')' | '(' expr ')'

with functions ``sin``, ``cos`` and ``exp``.  Parsing errors carry the byte
offset of the offending token, and nesting is bounded by :data:`MAX_DEPTH`.
Evaluation runs on numpy arrays, so a whole time grid is sampled in one
call, and raises on division by zero or any non-finite intermediate value.
"""

import functools
import re

import numpy as np

from .errors import SignalEvalError, SignalSyntaxError

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

#: Deepest nesting a signal may have.  Each parenthesis pair, function
#: call, unary minus and power opens one level, and a tree node sits one
#: level above its deepest operand, so a chain ``t+t+...+t`` of n terms is
#: n levels deep.  Parsing and evaluation recurse at most five frames per
#: level, which keeps them well below Python's recursion limit.
MAX_DEPTH = 100

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_OPERATORS = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "/": np.divide,
    "^": np.power,
}


def _tokenize(text):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise SignalSyntaxError(
                f"unexpected character {stripped[0]!r} at offset {offset}",
                offset=offset,
            )
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol):
        kind, value, offset = self.peek()
        if kind != "op" or value != symbol:
            raise SignalSyntaxError(
                f"expected {symbol!r} at offset {offset}", offset=offset
            )
        self.advance()

    def check_depth(self, depth, offset):
        if depth > MAX_DEPTH:
            raise SignalSyntaxError(
                f"expression nested deeper than {MAX_DEPTH} levels at offset {offset}",
                offset=offset,
                max_depth=MAX_DEPTH,
            )

    def node(self, offset, head, *children):
        """Tree node ``(head, *children, height)``; ``_eval`` ignores the height."""
        height = 1 + max((c[-1] for c in children if isinstance(c, tuple)), default=0)
        self.check_depth(height, offset)
        return (head, *children, height)

    def parse(self):
        node = self.expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise SignalSyntaxError(
                f"unexpected token {value!r} at offset {offset}", offset=offset
            )
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, offset = self.advance()
            node = self.node(offset, op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, offset = self.advance()
            node = self.node(offset, op, node, self.factor())
        return node

    def factor(self):
        # Every recursion of the parser passes through here, so bounding
        # ``level`` bounds the parser's stack; node heights bound ``_eval``'s.
        self.level += 1
        self.check_depth(self.level, self.peek()[2])
        if self.peek()[:2] == ("op", "-"):
            node = self.node(self.advance()[2], "neg", self.factor())
        else:
            node = self.power()
        self.level -= 1
        return node

    def power(self):
        node = self.primary()
        if self.peek()[:2] == ("op", "^"):
            node = self.node(self.advance()[2], "^", node, self.factor())
        return node

    def primary(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return self.node(offset, "num", float(value))
        if kind == "name":
            if value == "t":
                return self.node(offset, "t")
            if value in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return self.node(offset, "call", value, arg)
            raise SignalSyntaxError(
                f"unknown identifier {value!r} at offset {offset}",
                offset=offset,
                identifier=value,
            )
        if (kind, value) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise SignalSyntaxError(
            f"unexpected token {value or 'end of input'!r} at offset {offset}",
            offset=offset,
        )


def _eval(node, t, faults):
    """Value of ``node`` on the time array ``t``.

    Every node's value is checked: a zero divisor or a non-finite value
    appends ``(mask, reason)`` to ``faults``, the mask marking the times
    at which it occurs.
    """
    head = node[0]
    if head == "num":
        value = np.float64(node[1])
    elif head == "t":
        value = t
    elif head == "neg":
        value = np.negative(_eval(node[1], t, faults))
    elif head == "call":
        value = _FUNCTIONS[node[1]](_eval(node[2], t, faults))
    else:
        left = _eval(node[1], t, faults)
        right = _eval(node[2], t, faults)
        if head == "/":
            zero = right == 0.0
            if np.any(zero):
                faults.append((zero, "division by zero"))
        value = _OPERATORS[head](left, right)
    finite = np.isfinite(value)
    if not np.all(finite):
        faults.append((~finite, "non-finite value"))
    return value


def _first_fault(times, faults):
    """Earliest offending time and the first fault recorded there, or None."""
    if not faults:
        return None
    masks = [np.broadcast_to(mask, times.shape) for mask, _ in faults]
    at = np.flatnonzero(functools.reduce(np.logical_or, masks))
    if not at.size:
        return None
    first = at[np.argmin(times.flat[at])]
    reason = next(r for mask, (_, r) in zip(masks, faults) if mask.flat[first])
    return float(times.flat[first]), reason


class SignalExpr:
    """Parsed scalar signal ``u(t)``; callable on a float or an array of times."""

    def __init__(self, source, tree):
        self.source = source
        self._tree = tree

    def __call__(self, t):
        """Signal values at ``t``: a float for a float, else an array of t's shape.

        Raises :class:`SignalEvalError` if a divisor is zero or any
        intermediate value is non-finite (a complex power included); its
        ``context["t"]`` is the earliest offending time.
        """
        times = np.asarray(t, dtype=float)
        faults = []
        with np.errstate(all="ignore"):
            value = _eval(self._tree, times, faults)
        fault = _first_fault(times, faults)
        if fault is not None:
            tk, reason = fault
            raise SignalEvalError(
                f"signal {self.source!r} failed at t={tk:g}: {reason}", t=tk
            )
        if times.ndim == 0:
            return float(value)
        out = np.empty_like(times)
        out[...] = value
        return out

    def __repr__(self):
        return f"SignalExpr({self.source!r})"


def parse_signal(text):
    """Parse an input-signal expression into a callable :class:`SignalExpr`."""
    if not isinstance(text, str):
        raise SignalSyntaxError(f"expected str, got {type(text).__name__}")
    return SignalExpr(text, _Parser(text).parse())
