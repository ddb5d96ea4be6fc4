"""Parsing of element literals like ``1+2*e1`` or ``3+u^2``.

One recursive-descent parser serves every literal grammar in the package:
``+``, ``-``, ``*``, ``^`` (``**``) with a nonnegative integer exponent,
parentheses and implicit multiplication (``3e``, ``2(1+u)``).  The algebra
the values live in is chosen by the hooks ``leaf``, ``add``, ``neg`` and
``mul``; ``^`` is binary powering through ``mul``.
"""

from __future__ import annotations

import re

from .rings import MAX_DIGITS, DescriptorError, Element, Ring

_TOKEN_RE = re.compile(r"\s*(\d+|[A-Za-z][A-Za-z0-9]*|\*\*|[-+*^()])")

# Parentheses and unary signs nest at most this deep, so that parsing never
# hits the interpreter's recursion limit.  Numerals (coefficients and
# exponents) have at most MAX_DIGITS digits, so ``^`` takes < 60 squarings.
MAX_NESTING = 100


class LiteralError(DescriptorError):
    """The element literal does not parse."""


def _tokenize(text, what):
    out = []
    text = text.rstrip()
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise LiteralError(f"bad {what} near {text[pos:]!r}")
        if m.group(1).isdigit() and len(m.group(1)) > MAX_DIGITS:
            raise LiteralError(f"numeral over {MAX_DIGITS} digits in {what}")
        out.append("^" if m.group(1) == "**" else m.group(1))
        pos = m.end()
    return out


class _Parser:
    what = "element literal"

    def __init__(self, ring: Ring):
        self.ring = ring

    def parse(self, text: str):
        self.toks = _tokenize(text, self.what)
        self.pos = 0
        self.depth = 0
        if not self.toks:
            raise LiteralError(f"empty {self.what}")
        value = self.expr()
        if self.pos != len(self.toks):
            raise LiteralError(f"trailing junk in {self.what} {text!r}")
        return value

    # -- the algebra -------------------------------------------------------------

    def leaf(self, tok: str):
        if tok.isdigit():
            return self.ring.from_int(int(tok))
        return self.ring.generator(tok)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    # -- the grammar ---------------------------------------------------------------

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expr(self):
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = self.add(acc, rhs if op == "+" else self.neg(rhs))
        return acc

    def term(self):
        acc = self.factor()
        while True:
            nxt = self.peek()
            if nxt == "*":
                self.take()
                acc = self.mul(acc, self.factor())
            elif nxt is not None and (nxt.isdigit() or nxt[0].isalpha() or nxt == "("):
                # implicit multiplication: "2e", "3(1+u)"
                acc = self.mul(acc, self.factor())
            else:
                return acc

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise LiteralError("exponent must be a nonnegative integer")
            n = int(tok)
            out = self.leaf("1")
            while n:
                if n & 1:
                    out = self.mul(out, base)
                n >>= 1
                if n:
                    base = self.mul(base, base)
            return out
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise LiteralError(f"unexpected end of {self.what}")
        if tok in ("-", "+", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise LiteralError(
                    f"{self.what} nests deeper than {MAX_NESTING} levels")
            if tok == "(":
                value = self.expr()
                if self.take() != ")":
                    raise LiteralError(f"unbalanced parentheses in {self.what}")
            else:
                value = self.factor()
                if tok == "-":
                    value = self.neg(value)
            self.depth -= 1
            return value
        if tok.isdigit() or tok[0].isalpha():
            return self.leaf(tok)
        raise LiteralError(f"unexpected token {tok!r} in {self.what}")


def parse_element(ring: Ring, text: str) -> Element:
    return _Parser(ring).parse(text)


def format_element(x: Element) -> str:
    return str(x)
