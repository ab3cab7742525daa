"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3).

Every coefficient that shows up downstream (powers of i, 1/sqrt2
normalizations, sqrt3 eigenvalues, cosines and sines at multiples of
pi/12) lives in this field, so nothing is ever rounded.

A Scalar is eight integer numerators over one common denominator d > 0,

    x = (n0 + n1 i + n2 sqrt2 + n3 i sqrt2 + n4 sqrt3 + n5 i sqrt3
         + n6 sqrt6 + n7 i sqrt6) / d,

kept canonical (gcd(n0, ..., n7, d) = 1, trailing zero numerators
dropped), so equal values have equal (numerators, d) and a rational
value has at most one numerator.  Slot k holds i^(k & 1) sqrt2^(k >> 1 & 1)
sqrt3^(k >> 2), so slot a times slot b is slot a ^ b times the squares of the
factors they share; only rational operands skip that 8 x 8 table.  Values
are immutable after construction.

Combination is the sparse exact linear combination over binary-coded keys
that spinors, Clifford algebra elements and exterior forms all are.
``draw_ints`` draws the sampled checks' random ints as ``randint`` does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

RADICALS = (1, 2, 3, 6)

# slot k holds i^(k & 1) sqrt2^(k >> 1 & 1) sqrt3^(k >> 2): slot a times slot b
# is _MUL[a][b][1] times slot _MUL[a][b][0] = a ^ b, the factor being the
# square of each factor the two slots share (i^2 = -1, sqrt2^2 = 2, sqrt3^2 = 3)
_MUL = [
    [(a ^ b, (-1) ** (a & b & 1) * 2 ** ((a & b) >> 1 & 1) * 3 ** ((a & b) >> 2)) for b in range(8)]
    for a in range(8)
]

# _FLIP[bit] negates the slots holding that factor: i -> -i (bit 1), sqrt2 -> -sqrt2
# (bit 2), sqrt3 -> -sqrt3 (bit 4); sqrt6 holds both radicals and flips with either
_FLIP = {bit: tuple(-1 if k & bit else 1 for k in range(8)) for bit in (1, 2, 4)}

_ZERO = Fraction(0)


def _new(n: tuple, d: int) -> "Scalar":
    # (n, d) must already be canonical
    out = object.__new__(Scalar)
    out._n = n
    out._d = d
    return out


def _make(n: list, d: int) -> "Scalar":
    """The canonical Scalar of numerators n (a list, consumed) over d > 0."""
    while n and not n[-1]:
        n.pop()
    if not n:
        return ZERO
    g = gcd(d, *n)
    if g != 1:
        n = [x // g for x in n]
        d //= g
    return _new(tuple(n), d)


def _ratio(p: int, q: int) -> "Scalar":
    """The rational p/q for ints p and q != 0."""
    if not p:
        return ZERO
    g = gcd(p, q) if q > 0 else -gcd(p, q)
    return _new((p // g,), q // g)


class Scalar:
    """An element of Q(i, sqrt2, sqrt3) with exact field operations."""

    __slots__ = ("_n", "_d")

    # -- constructors ------------------------------------------------

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return _coerce(Fraction(p, q))

    @staticmethod
    def sqrt(r: int) -> "Scalar":
        if r not in (2, 3, 6):
            raise ValueError("only sqrt2, sqrt3, sqrt6 are representable")
        return _new((0,) * (2 * RADICALS.index(r)) + (1,), 1)

    @staticmethod
    def i_power(e: int) -> "Scalar":
        """i**e for any integer e."""
        return _I_POWERS[e % 4]

    # -- ring / field operations --------------------------------------

    def __add__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
        an, bn = self._n, other._n
        if not bn:
            return self
        if not an:
            return other
        ad, bd = self._d, other._d
        if len(an) == 1 == len(bn):
            return _ratio(an[0] * bd + bn[0] * ad, ad * bd)
        if ad != bd:
            an = [x * bd for x in an]
            bn = [y * ad for y in bn]
            ad *= bd
        if len(an) < len(bn):
            an, bn = bn, an
        n = list(an)
        for k, y in enumerate(bn):
            n[k] += y
        return _make(n, ad)

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        return self + -other if other._n else self

    def __neg__(self) -> "Scalar":
        return _new(tuple([-x for x in self._n]), self._d)

    def __mul__(self, other) -> "Scalar":
        if type(other) is not Scalar:
            other = _coerce(other)
        an, bn = self._n, other._n
        if not an or not bn:
            return ZERO
        if len(an) == 1 == len(bn):
            return _ratio(an[0] * bn[0], self._d * other._d)
        n = [0] * 8
        for a, x in enumerate(an):
            if x:
                row = _MUL[a]
                for b, y in enumerate(bn):
                    if y:
                        k, f = row[b]
                        n[k] += f * x * y
        return _make(n, self._d * other._d)

    __radd__ = __add__
    __rmul__ = __mul__

    def _signed(self, mask) -> "Scalar":
        return _new(tuple([s * x for s, x in zip(mask, self._n)]), self._d)

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i, radicals fixed."""
        return self._signed(_FLIP[1])

    def inverse(self) -> "Scalar":
        """Multiplicative inverse, by successive rationalization over sqrt3, sqrt2, i."""
        if not self._n:
            raise ZeroDivisionError("inverse of zero scalar")
        num = ONE
        x = self
        for bit in (4, 2, 1):
            y = x._signed(_FLIP[bit])
            num = num * y
            x = x * y
        assert len(x._n) == 1, "rationalization failed"
        return num * _ratio(x._d, x._n[0])

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        other = _coerce(other)
        return self._n == other._n and self._d == other._d

    def __hash__(self):
        # a rational value hashes as its Fraction, as __eq__ demands
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self._n, self._d))

    def real_part(self) -> "Scalar":
        """(x + conj x) / 2; drops every i-component."""
        n = list(self._n)
        n[1::2] = [0] * len(n[1::2])
        return _make(n, self._d)

    def is_rational(self) -> bool:
        return len(self._n) <= 1

    def as_fraction(self) -> Fraction:
        if not self._n:
            return _ZERO
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return Fraction(self._n[0], self._d)

    def _pairs(self):
        """(rad, re, im) as Fractions for every nonzero radical, in RADICALS order."""
        n = self._n + (0,) * (8 - len(self._n))
        for k, rad in enumerate(RADICALS):
            if n[2 * k] or n[2 * k + 1]:
                yield rad, Fraction(n[2 * k], self._d), Fraction(n[2 * k + 1], self._d)

    # -- encodings -----------------------------------------------------

    _KEYS = {1: "1", 2: "sqrt2", 3: "sqrt3", 6: "sqrt6"}

    def to_json(self) -> dict:
        return {
            self._KEYS[rad]: {
                "re": f"{re.numerator}/{re.denominator}",
                "im": f"{im.numerator}/{im.denominator}",
            }
            for rad, re, im in self._pairs()
        }

    def latex(self) -> str:
        if not self._n:
            return "0"
        parts = []
        for rad, re, im in self._pairs():
            radtex = "" if rad == 1 else f"\\sqrt{{{rad}}}"
            for val, unit in ((re, ""), (im, "i")):
                if not val:
                    continue
                sign = "-" if val < 0 else "+"
                mag = abs(val)
                coef = "" if (mag == 1 and (unit or radtex)) else _frac_tex(mag)
                parts.append((sign, coef + unit + radtex or _frac_tex(mag)))
        body = parts[0][1] if parts[0][0] == "+" else "-" + parts[0][1]
        for sign, text in parts[1:]:
            body += sign + text
        return body

    def __repr__(self) -> str:
        if not self._n:
            return "0"
        parts = []
        for rad, re, im in self._pairs():
            tag = "" if rad == 1 else f"*sqrt{rad}"
            if re:
                parts.append(f"{re}{tag}")
            if im:
                parts.append(f"{im}i{tag}")
        return " + ".join(parts).replace("+ -", "- ")

    __str__ = __repr__


def _frac_tex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"\\frac{{{f.numerator}}}{{{f.denominator}}}"


def _coerce(x) -> Scalar:
    if type(x) is Scalar:
        return x
    if isinstance(x, int):
        return _new((int(x),), 1) if x else ZERO
    if isinstance(x, Fraction):
        return _new((x.numerator,), x.denominator) if x else ZERO
    raise TypeError(f"cannot coerce {x!r} to Scalar")


def accumulate(terms: dict, pairs) -> dict:
    """Add each (key, coefficient) pair into ``terms``; a key whose sum is zero is dropped."""
    for key, c in pairs:
        if key in terms:
            c = terms[key] + c
            if not c:
                del terms[key]
                continue
        elif not c:
            continue
        terms[key] = c
    return terms


class Combination:
    """A sparse exact linear combination: ``terms`` maps keys to nonzero coefficients.

    A subclass names the slot that holds its space in ``_space`` (a spinor's
    bit width ``k``, an algebra's dimension ``n``, a form's ``degree``);
    combinations add only within one space.  It supplies ``_key``, which
    checks a key and returns it in its stored form, and ``_repr_name``.
    """

    __slots__ = ("terms",)
    _space = ""
    _coeff = staticmethod(_coerce)  # the coefficient type, applied to whatever is given

    def __init__(self, space, terms: dict | None = None):
        """The combination in ``space`` of the terms: keys checked, coefficients coerced, zeros dropped."""
        setattr(self, self._space, space)
        self.terms = t = {}
        for key, c in (terms or {}).items():
            key, c = self._key(key), self._coeff(c)
            if c:
                t[key] = c

    def _like(self, terms: dict):
        """A combination in this one's space with the given terms, all nonzero."""
        out = object.__new__(type(self))
        setattr(out, self._space, getattr(self, self._space))
        out.terms = terms
        return out

    def _check(self, other):
        a, b = getattr(self, self._space), getattr(other, self._space)
        if a != b:
            raise ValueError(f"{type(self).__name__}.{self._space} mismatch: {a} vs {b}")

    def __add__(self, other):
        self._check(other)
        return self._like(accumulate(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, c):
        c = self._coeff(c)
        return self._like({key: c * v for key, v in self.terms.items()} if c else {})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and getattr(self, self._space) == getattr(other, self._space)
            and self.terms == other.terms
        )

    def __hash__(self):
        terms = tuple(sorted((key, hash(c)) for key, c in self.terms.items()))
        return hash((getattr(self, self._space), terms))

    @staticmethod
    def _repr_term(c, name: str) -> str:
        return f"({c}){name}"

    def __repr__(self):
        return " + ".join(
            self._repr_term(c, self._repr_name(key)) for key, c in sorted(self.terms.items())
        ) or "0"


class LatexCombination(Combination):
    __slots__ = ()

    @staticmethod
    def _latex_term(c, name: str) -> str:
        # a unit coefficient drops to its sign unless the term is a bare scalar;
        # a coefficient with an inner sign is parenthesized
        ctex = c.latex()
        if name and ctex in ("1", "-1"):
            return ctex[:-1] + name
        if "+" in ctex[1:] or "-" in ctex[1:]:
            ctex = f"({ctex})"
        return ctex + name

    def latex(self) -> str:
        out = ""
        for key, c in sorted(self.terms.items()):
            term = self._latex_term(c, self._latex_name(key))
            out += term if not out or term.startswith("-") else "+" + term
        return out or "0"


ZERO = _new((), 1)
ONE = _new((1,), 1)
I = _new((0, 1), 1)
_I_POWERS = (ONE, I, -ONE, -I)
SQRT2 = Scalar.sqrt(2)
SQRT3 = Scalar.sqrt(3)
SQRT6 = Scalar.sqrt(6)
HALF = Scalar.rational(1, 2)
INV_SQRT2 = SQRT2 * HALF  # 1/sqrt2 = sqrt2/2

# cos(k*pi/12) for k = 0..6; the rest follow by symmetry
_COS_TABLE = [
    ONE,
    (SQRT6 + SQRT2) * Scalar.rational(1, 4),
    SQRT3 * HALF,
    INV_SQRT2,
    HALF,
    (SQRT6 - SQRT2) * Scalar.rational(1, 4),
    ZERO,
]


class Angle:
    """An angle k*pi/12 with k taken mod 24; trig values are exact Scalars."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        self.k = k % 24

    def cos(self) -> Scalar:
        k = self.k
        if k > 12:
            k = 24 - k
        if k <= 6:
            return _COS_TABLE[k]
        return -_COS_TABLE[12 - k]

    def sin(self) -> Scalar:
        return Angle(6 - self.k).cos()


def draw_ints(rng, ranges: Sequence[Tuple[int, int]], count: int = 1) -> List[int]:
    """``count`` rounds of one ``rng.randint(lo, hi)`` per (lo, hi) of ``ranges``, with the
    same values and rng state: randint's loop on ``getrandbits((hi - lo + 1).bit_length())``."""
    plan = [(lo, hi - lo + 1, (hi - lo + 1).bit_length()) for lo, hi in ranges]
    if any(n < 1 for _, n, _ in plan):
        raise ValueError("empty range for randint")
    bits, out = rng.getrandbits, []
    for _ in range(count):
        for lo, n, k in plan:
            r = bits(k)
            while r >= n:
                r = bits(k)
            out.append(lo + r)
    return out
