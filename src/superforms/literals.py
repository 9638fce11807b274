"""Text literals for coefficient-algebra elements and supermatrices.

Element grammar (whitespace-insensitive)::

    number   := term ('+' term)*
    term     := coeff ('*' gen)*  |  gen ('*' gen)*
    coeff    := '(' rational (('+'|'-') rational 'i')? ')'
    gen      := 't' INT '~'?  |  'e' INT
    rational := '-'? INT ('/' INT)?

Examples: ``(1)``, ``(0+1i)*t1``, ``(3/2-1i)*t1*t2~ + (1)*e1``.  Generator
names are 1-indexed: pair k contributes ``tk`` and ``tk~``; self-real odd
generators continue the ``t`` numbering without a tilde; even square-zero
generators are ``e1, e2, ...``.

Matrix grammar::

    matrix := 'shape' INT '|' INT '[' row (',' row)* ']'
    row    := '[' number (',' number)* ']'

The formatter emits a canonical form (terms sorted by monomial, coefficient
always parenthesized, generators ascending), and ``parse(format(x)) == x``.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .algebra import (
    AlgebraSignature, SuperNumber, even_mask_of, odd_mask_of, one, scalar,
)
from .scalars import GaussianRational, format_scalar

_TOKEN = re.compile(r"\s*(?:(\d+)|([a-z]+)|([()\[\],+\-*/|~]))")


class LiteralError(ValueError):
    pass


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: List[str] = []
        while self.pos < len(text):
            m = _TOKEN.match(text, self.pos)
            if not m or m.end() == self.pos:
                if text[self.pos:].strip():
                    raise LiteralError(f"bad character at offset {self.pos}: {text[self.pos:self.pos+8]!r}")
                break
            self.pos = m.end()
            self.tokens.append(m.group(1) or m.group(2) or m.group(3))
        self.index = 0

    def peek(self) -> str:
        return self.tokens[self.index] if self.index < len(self.tokens) else ""

    def next(self) -> str:
        tok = self.peek()
        if not tok:
            raise LiteralError("unexpected end of input")
        self.index += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise LiteralError(f"expected {tok!r}, got {got!r}")

    def done(self) -> bool:
        return self.index >= len(self.tokens)


def _parse_rational(s: _Scanner) -> Tuple[int, int]:
    negative = False
    if s.peek() == "-":
        s.next()
        negative = True
    num_tok = s.next()
    if not num_tok.isdigit():
        raise LiteralError(f"expected integer, got {num_tok!r}")
    num = int(num_tok)
    den = 1
    if s.peek() == "/":
        s.next()
        den_tok = s.next()
        if not den_tok.isdigit():
            raise LiteralError(f"expected denominator, got {den_tok!r}")
        den = int(den_tok)
    return (-num if negative else num, den)


def _parse_coeff(s: _Scanner) -> GaussianRational:
    s.expect("(")
    re_num, re_den = _parse_rational(s)
    im_num, im_den = 0, 1
    if s.peek() in ("+", "-"):
        sign = -1 if s.next() == "-" else 1
        im_num, im_den = _parse_rational(s)
        im_num *= sign
        s.expect("i")
    s.expect(")")
    return GaussianRational(re_num * im_den, im_num * re_den, re_den * im_den)


def _generator_id(sig: AlgebraSignature, name: str, number: int, tilde: bool):
    """Map a written generator to (is_odd, raw id)."""
    if name == "t":
        if tilde:
            if not 1 <= number <= sig.odd_pairs:
                raise LiteralError(f"t{number}~ is not a generator of this algebra")
            return True, 2 * (number - 1) + 1
        if 1 <= number <= sig.odd_pairs:
            return True, 2 * (number - 1)
        idx = number - sig.odd_pairs - 1
        if 0 <= idx < sig.odd_selfreal:
            return True, 2 * sig.odd_pairs + idx
        raise LiteralError(f"t{number} is not a generator of this algebra")
    if name == "e":
        if not 1 <= number <= sig.even_nilpotents:
            raise LiteralError(f"e{number} is not a generator of this algebra")
        return False, number - 1
    raise LiteralError(f"unknown generator family {name!r}")


def _parse_gen(s: _Scanner, sig: AlgebraSignature) -> SuperNumber:
    name = s.next()
    num_tok = s.next()
    if not num_tok.isdigit():
        raise LiteralError(f"expected generator index, got {num_tok!r}")
    tilde = False
    if s.peek() == "~":
        s.next()
        tilde = True
    is_odd, gid = _generator_id(sig, name, int(num_tok), tilde)
    from .algebra import epsilon, odd_generator
    return odd_generator(sig, gid) if is_odd else epsilon(sig, gid)


def _parse_term(s: _Scanner, sig: AlgebraSignature) -> SuperNumber:
    if s.peek() == "(":
        acc = scalar(sig, _parse_coeff(s))
    else:
        acc = one(sig) * _parse_gen(s, sig)
    while s.peek() == "*":
        s.next()
        acc = acc * _parse_gen(s, sig)
    return acc


def parse_number(text: str, sig: AlgebraSignature) -> SuperNumber:
    s = _Scanner(text)
    acc = _parse_term(s, sig)
    while s.peek() == "+":
        s.next()
        acc = acc + _parse_term(s, sig)
    if not s.done():
        raise LiteralError(f"trailing input near {s.peek()!r}")
    return acc


def _gen_name(sig: AlgebraSignature, gid: int) -> str:
    if gid < 2 * sig.odd_pairs:
        return f"t{gid // 2 + 1}" + ("~" if gid & 1 else "")
    return f"t{sig.odd_pairs + (gid - 2 * sig.odd_pairs) + 1}"


def format_number(x: SuperNumber) -> str:
    if x.is_zero():
        return "(0)"
    parts = []
    for key, coeff in sorted(x.items()):
        piece = f"({format_scalar(coeff)})"
        omask = odd_mask_of(key)
        gid = 0
        while omask:
            if omask & 1:
                piece += f"*{_gen_name(x.sig, gid)}"
            omask >>= 1
            gid += 1
        emask = even_mask_of(key)
        j = 0
        while emask:
            if emask & 1:
                piece += f"*e{j + 1}"
            emask >>= 1
            j += 1
        parts.append(piece)
    return " + ".join(parts)


def parse_matrix(text: str, sig: AlgebraSignature):
    """Parse a matrix literal; returns ``(m, n, rows)`` with SuperNumber entries."""
    s = _Scanner(text)
    s.expect("shape")
    m_tok = s.next()
    s.expect("|")
    n_tok = s.next()
    if not (m_tok.isdigit() and n_tok.isdigit()):
        raise LiteralError("shape must be two integers")
    m, n = int(m_tok), int(n_tok)
    size = m + n
    s.expect("[")
    rows = []
    while True:
        s.expect("[")
        row = [ _parse_number_inline(s, sig) ]
        while s.peek() == ",":
            s.next()
            row.append(_parse_number_inline(s, sig))
        s.expect("]")
        rows.append(row)
        if s.peek() == ",":
            s.next()
            continue
        break
    s.expect("]")
    if not s.done():
        raise LiteralError(f"trailing input near {s.peek()!r}")
    if len(rows) != size or any(len(r) != size for r in rows):
        raise LiteralError(f"matrix body must be {size}x{size} for shape {m}|{n}")
    return m, n, rows


def _parse_number_inline(s: _Scanner, sig: AlgebraSignature) -> SuperNumber:
    acc = _parse_term(s, sig)
    while s.peek() == "+":
        s.next()
        acc = acc + _parse_term(s, sig)
    return acc


def format_matrix(m: int, n: int, rows) -> str:
    body = ", ".join("[" + ", ".join("(0)" if x.is_zero() else format_number(x) for x in row) + "]"
                     for row in rows)
    return f"shape {m}|{n} [{body}]"
