"""Sparse polynomials over the nonnegative integers, in one or two variables.

A polynomial is a map from exponents to positive integer coefficients; the
zero polynomial is the empty map.  Exponents are plain Python naturals, so
a value like 2**label stays exact no matter how large the label is.  The
``bits`` module translates between an exponent and its set of binary digit
positions when the bit-level view is needed.

One-variable terms are keyed by the x-exponent, two-variable terms by an
(x-exponent, y-exponent) pair.  Text form follows the grammar

    poly  := term (" + " term)*
    term  := coeff | mono | coeff "*" mono
    mono  := var ("^" nat)? ("*" var ("^" nat)?)*

with terms rendered in strictly decreasing exponent order (two variables:
lexicographic on the (x, y) exponent pair) and "0" for the zero polynomial.
``parse_poly`` accepts the same grammar back, is lenient about whitespace,
multiplies the factors of a mono (x*x*y is x^2*y) and merges duplicate
monomials.
"""

from __future__ import annotations

import re
import sys
from itertools import compress
from math import gcd
from types import MappingProxyType

from .errors import PolyParseError, _brief


def _clean_terms(items, arity):
    terms = {}
    for exp, coeff in items:
        if arity == 1:
            ok = isinstance(exp, int) and not isinstance(exp, bool) and exp >= 0
        else:
            ok = (
                isinstance(exp, tuple)
                and len(exp) == 2
                and all(isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exp)
            )
        if not ok:
            raise ValueError(f"bad exponent {_brief(exp)} for a {arity}-variable polynomial")
        if not isinstance(coeff, int) or isinstance(coeff, bool):
            raise ValueError(f"coefficient must be an integer, got {_brief(coeff)}")
        if coeff < 0:
            raise ValueError(f"coefficient must be nonnegative, got {_brief(coeff)}")
        if coeff:
            terms[exp] = terms.get(exp, 0) + coeff
    # Descending exponent order; iteration order is then canonical everywhere.
    return dict(sorted(terms.items(), reverse=True))


class _Poly:
    """What both arities share: an immutable map from exponents to positive
    coefficients, kept in descending exponent order."""

    __slots__ = ("_terms",)
    arity = 1
    zero = 0  # the exponent of the constant term

    def __init__(self, terms=()):
        items = terms.items() if hasattr(terms, "items") else terms
        self._terms = _clean_terms(items, self.arity)

    @classmethod
    def _from_key(cls, key):
        """Instance whose poly_key is key: (exponent, coefficient) items the
        package built itself, already in descending exponent order."""
        obj = object.__new__(cls)
        obj._terms = dict(key)
        return obj

    @property
    def terms(self):
        return MappingProxyType(self._terms)

    def constant_coeff(self):
        return self._terms.get(self.zero, 0)

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self):
        return hash(tuple(self._terms.items()))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return add(self, other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return mul(self, other)

    def render(self):
        return render(self)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"{type(self).__name__}({render(self)!r})"


class Poly1(_Poly):
    """Polynomial in x alone: {exponent: coefficient}, coefficients > 0."""

    __slots__ = ()

    @classmethod
    def monomial(cls, exp, coeff=1):
        return cls({exp: coeff})

    @property
    def degree(self):
        """Largest exponent; -1 for the zero polynomial."""
        return next(iter(self._terms), -1)

    def is_constant(self):
        return self.degree <= 0

    def __call__(self, t):
        return evaluate(self, t)


class Poly2(_Poly):
    """Polynomial in x and y: {(x-exponent, y-exponent): coefficient}."""

    __slots__ = ()
    arity = 2
    zero = (0, 0)

    @classmethod
    def monomial(cls, xexp, yexp, coeff=1):
        return cls({(xexp, yexp): coeff})

    @property
    def degrees(self):
        """(max x-exponent, max y-exponent); (-1, -1) for zero."""
        if not self._terms:
            return (-1, -1)
        return (max(i for i, _ in self._terms), max(j for _, j in self._terms))

    def is_constant(self):
        return all(e == (0, 0) for e in self._terms)

    def __call__(self, tx, ty):
        return evaluate2(self, tx, ty)


def _same_arity(p, q):
    if type(p) is not type(q):
        raise TypeError(f"mixed polynomial arities: {type(p).__name__} and {type(q).__name__}")


def add(p, q):
    """Sum in the same semiring."""
    _same_arity(p, q)
    out = dict(p.terms)
    for exp, coeff in q.terms.items():
        out[exp] = out.get(exp, 0) + coeff
    return type(p)._from_key(sorted(out.items(), reverse=True))


def mul(p, q):
    """Product in the same semiring.

    Dense operands multiply as one integer (Kronecker substitution; Harvey,
    "Faster polynomial multiplication via multipoint Kronecker
    substitution", J. Symbolic Comput. 2009): each operand's coefficients
    are packed into one int at a stride of w bytes, the least of 1, 2, 4
    and 8 with 2^(8w) above p(1) * max coeff(q) and q(1) * max coeff(p),
    either of which bounds every product coefficient, so no stride carries
    into the next.  CPython multiplies the two ints, and the product's
    bytes read back as its coefficients.  A Poly2 term (i, j) packs at
    i * D + j, with D = deg_y p + deg_y q + 1, so no y-exponent of the
    product reaches D.  Where _byte_limit says the pair loop is faster, or
    the bound reaches 2^64, each pair of terms is multiplied instead:
    sparse operands such as x^(2^40) + 1 keep that loop.
    """
    _same_arity(p, q)
    terms = _packed(p, q)
    if terms is not None:
        return type(p)._from_key(terms)
    out = {}
    if isinstance(p, Poly1):
        for e1, c1 in p.terms.items():
            for e2, c2 in q.terms.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
    else:
        for (i1, j1), c1 in p.terms.items():
            for (i2, j2), c2 in q.terms.items():
                e = (i1 + i2, j1 + j2)
                out[e] = out.get(e, 0) + c1 * c2
    return type(p)._from_key(sorted(out.items(), reverse=True))


_STRIDES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))


def _byte_limit(pairs):
    """The packed product's size in bytes past which the loop over pairs
    pairs of terms is faster than packing; 0 where it always is.

    Measured on random Poly1 (CPython 3.11, 2-CPU x86-64): the loop costs
    about 0.2-1.5 us a pair, packing about 7 us at any size plus CPython's
    Karatsuba product, which grows as bytes^1.585.  From 36 to 4 million pairs the two cross between
    10 * pairs^0.8 and 17 * pairs^0.8 bytes, so at 8 * pairs^0.8 packing
    takes about 0.5-0.8 of the loop's time; below 32 pairs it takes more
    at every size.  A Poly2 pair costs the loop more, so the limit holds
    for it too."""
    return 8 * pairs**0.8 if pairs >= 32 else 0


def _packed(p, q):
    """The (exponent, coefficient) items of p * q in descending exponent
    order, through one integer product, or None where mul's gate keeps the
    pair loop.  Both operands are packed in sys.byteorder, the order in
    which memoryview.cast reads the product's bytes back."""
    a, b = p._terms, q._terms
    limit = _byte_limit(len(a) * len(b))
    if not limit:
        return None
    if isinstance(p, Poly2):
        stride = max(j for _, j in a) + max(j for _, j in b) + 1
        # Either coordinate past the limit puts the packed bytes past it
        # too; checked before any i * stride, as exponents may be huge.
        if stride > limit or next(iter(a))[0] + next(iter(b))[0] > limit:
            return None
        a, b = ({i * stride + j: c for (i, j), c in t.items()} for t in (a, b))
    bound = min(sum(a.values()) * max(b.values()), sum(b.values()) * max(a.values()))
    size = next(iter(a)) + next(iter(b)) + 1  # coefficients of the product
    width, fmt = next(((w, f) for w, f in _STRIDES if bound < 1 << 8 * w), (None, None))
    if width is None or size * width > limit:
        return None
    ints = []
    for t in (a, b):
        buf = bytearray((next(iter(t)) + 1) * width)
        view = memoryview(buf).cast(fmt)
        for e, c in t.items():
            view[e] = c
        ints.append(int.from_bytes(buf, sys.byteorder))
    view = memoryview((ints[0] * ints[1]).to_bytes(size * width, sys.byteorder)).cast(fmt)[::-1]
    terms = compress(zip(range(size - 1, -1, -1), view), view)
    if isinstance(p, Poly2):
        return [(divmod(e, stride), c) for e, c in terms]
    return terms


def evaluate(p, t):
    """Value of a one-variable polynomial at a natural t."""
    if not isinstance(p, Poly1):
        raise TypeError("evaluate takes a one-variable polynomial; use evaluate2")
    return sum(c * t**e for e, c in p.terms.items())


def evaluate2(p, tx, ty):
    """Value of a two-variable polynomial at naturals (tx, ty)."""
    if not isinstance(p, Poly2):
        raise TypeError("evaluate2 takes a two-variable polynomial")
    return sum(c * tx**i * ty**j for (i, j), c in p.terms.items())


def lift(p: Poly1) -> Poly2:
    """Embed N[x] into N[x,y]: every term gets y-exponent 0."""
    if isinstance(p, Poly2):
        return p
    return Poly2._from_key([((e, 0), c) for e, c in p._terms.items()])


def content(p) -> int:
    """Greatest common divisor of the coefficients; 0 for the zero polynomial."""
    g = 0
    for c in p.terms.values():
        g = gcd(g, c)
    return g


def poly_key(p):
    """Total-order key: the term list in descending exponent order.

    Comparing keys compares term lists lexicographically by (exponent,
    coefficient), which is the tie-break order used for canonical forms.
    """
    return tuple(p.terms.items())


# ---------------------------------------------------------------------------
# Exact division.

def _divide_terms(p, q):
    # taken[e] is what the quotient so far takes from p's term e.  No later
    # quotient term reaches a term already read, so a walk that ends has
    # q * quo == p with no remainder left to check.  Exponents are ints or
    # (x, y) pairs in lexicographic order; only the step from a term of p
    # to the quotient's exponent and the landing exponents differ.
    items = list(q.items())
    lead, qc = items[0]
    pairs = type(lead) is tuple
    if pairs:
        qx, qy = lead
    taken = dict.fromkeys(p, 0)
    quo = []
    try:
        for e, pc in p.items():
            rest = pc - taken[e]
            if not rest:
                continue
            if rest < 0 or rest % qc:
                return None
            c = rest // qc
            if pairs:
                ex, ey = e[0] - qx, e[1] - qy
                if ex < 0 or ey < 0:
                    return None
                quo.append(((ex, ey), c))
                for (x, y), cq in items:
                    taken[ex + x, ey + y] += c * cq
            else:
                ex = e - lead
                if ex < 0:
                    return None
                quo.append((ex, c))
                for x, cq in items:
                    taken[ex + x] += c * cq
    except KeyError:  # off supp(p): taken only grows, so it never cancels
        return None
    return quo


def divide_exact(p, q):
    """Quotient r with q * r == p, staying in the same semiring, else None.

    Over the naturals nothing cancels, so the quotient's terms are read off
    p's own terms in descending order, under the lexicographic x-then-y
    monomial order: the leading term of what is left of p, divided by q's
    leading term, is the next quotient term, and its products with q are
    tallied against the terms of p they land on.  A product off supp(p), a
    tally past p's coefficient or a leading coefficient that q's does not
    divide settles None.  Every term of p is read once and every quotient
    term costs |q| dictionary steps.  The one walk serves both arities, on
    int exponents for one variable and pairs for two, so nothing is lifted.
    Dividing by the zero polynomial raises ZeroDivisionError.
    """
    _same_arity(p, q)
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    quo = _divide_terms(p._terms, q._terms)
    return None if quo is None else type(p)._from_key(quo)


# ---------------------------------------------------------------------------
# Text form.  Python refuses to convert an int of more than 4,300 digits to
# or from decimal text in one go, so long numbers go through in pieces.

_CHUNK = 1000  # decimal digits per piece
_BASE = 10**_CHUNK


def int_text(n: int) -> str:
    """Decimal text of a natural, however many digits it has."""
    if n < _BASE:
        return str(n)
    pieces = []
    while n >= _BASE:
        n, low = divmod(n, _BASE)
        pieces.append(str(low).zfill(_CHUNK))
    pieces.append(str(n))
    return "".join(reversed(pieces))


def _text_int(digits: str) -> int:
    n = 0
    for i in range(0, len(digits), _CHUNK):
        piece = digits[i:i + _CHUNK]
        n = n * 10**len(piece) + int(piece)
    return n


def _power(var, e):
    return "" if e == 0 else var if e == 1 else f"{var}^{int_text(e)}"


def _term_text(c, mono):
    """A term's text from its coefficient and its monomial's text."""
    if not mono:
        return int_text(c)
    return mono if c == 1 else f"{int_text(c)}*{mono}"


def _x_term(e, c):
    return _term_text(c, _power("x", e))


def _xy_term(exp, c):
    x, y = _power("x", exp[0]), _power("y", exp[1])
    return _term_text(c, f"{x}*{y}" if x and y else x or y)


def render(p) -> str:
    """Canonical text: terms joined by " + ", descending exponent order."""
    terms = p.terms
    if not terms:
        return "0"
    term = _x_term if isinstance(p, Poly1) else _xy_term
    return " + ".join(map(term, terms.keys(), terms.values()))


_TOKEN = re.compile(r"\s*(\d+|[xy^*+]|\S)")
_VARS = ("x", "y")


def _fail_token(tok, pos, expected):
    if tok == "-":
        raise PolyParseError(
            "'-' is not allowed: coefficients are nonnegative", pos
        )
    raise PolyParseError(f"expected {expected}, found {_brief(tok)}", pos)


def _operand(toks, op_pos, ok, missing, expected):
    """The token after the operator at op_pos, which must pass ok.  The
    text ending there is "expected <missing>" one column past the operator;
    a token that fails ok is "expected <expected>" at that token."""
    tok, pos = next(toks)
    if not tok:
        raise PolyParseError(f"expected {missing}", op_pos + 1)
    if not ok(tok):
        _fail_token(tok, pos, expected)
    return tok


def parse_poly(text: str):
    """Parse polynomial text; Poly2 when y occurs, Poly1 otherwise.

    Whitespace around tokens is ignored; everything else is strict.  Errors
    carry the 0-based character position in ``.position``.
    """
    toks = iter([(m[1], m.start(1)) for m in _TOKEN.finditer(text)] + [("", len(text))])
    terms = []
    any_y = False
    tok, pos = "+", 0  # read as if a '+' opened the text
    while tok:  # "" ends the tokens
        if tok != "+":
            _fail_token(tok, pos, "'+' or end of input")
        plus = pos
        tok, pos = next(toks)
        if not tok:
            raise PolyParseError("dangling '+'" if terms else "empty polynomial", plus)
        coeff, exps = 1, [0, 0]  # exps[False] is x's, exps[True] y's
        var = tok in _VARS  # the term opens with a variable, not a coefficient
        if tok.isdecimal():
            coeff = _text_int(tok)
            tok, pos = next(toks)
        elif not var:
            _fail_token(tok, pos, "coefficient or variable")
        while var or tok == "*":
            if not var:  # a variable must follow each '*'
                tok = _operand(
                    toks, pos, _VARS.__contains__, "variable after '*'", "variable after '*'"
                )
            var = False
            y = tok == "y"
            any_y = any_y or y
            e = 1
            tok, pos = next(toks)
            if tok == "^":
                e = _text_int(_operand(toks, pos, str.isdecimal, "exponent after '^'", "exponent"))
                tok, pos = next(toks)
            exps[y] += e
        terms.append((tuple(exps), coeff))
    if any_y:
        return Poly2(terms)
    return Poly1([(xe, c) for (xe, _), c in terms])


def parse_poly1(text: str) -> Poly1:
    """Parse strictly one-variable text; reject anything mentioning y."""
    p = parse_poly(text)
    if isinstance(p, Poly2):
        raise PolyParseError("expected a one-variable polynomial", text.find("y"))
    return p


def parse_poly2(text: str) -> Poly2:
    """Parse as a two-variable polynomial, lifting pure-x input."""
    return lift(parse_poly(text))
