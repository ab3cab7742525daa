"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3).

Every coefficient that shows up downstream (powers of i, 1/sqrt2
normalizations, sqrt3 eigenvalues, cosines and sines at multiples of
pi/12) lives in this field, so nothing is ever rounded.

A Scalar is stored as a map from a squarefree radical in {1, 2, 3, 6}
to a complex rational pair, i.e.

    x = sum_r (re_r + im_r * i) * sqrt(r),   r in {1, 2, 3, 6}

with all re_r, im_r exact ``fractions.Fraction`` values and zero
components omitted.  Values are immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

RADICALS = (1, 2, 3, 6)

# sqrt(a) * sqrt(b) = _RADMUL[a, b][0] * sqrt(_RADMUL[a, b][1])
_RADMUL = {}
for _a in RADICALS:
    for _b in RADICALS:
        _prod = _a * _b
        _f = 1
        for _s, _root in ((36, 6), (9, 3), (4, 2)):
            if _prod % _s == 0:
                _f = _root
                _prod //= _s
                break
        _RADMUL[(_a, _b)] = (_f, _prod)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class Scalar:
    """An element of Q(i, sqrt2, sqrt3) with exact field operations."""

    __slots__ = ("_c",)

    def __init__(self, components: Dict[int, Tuple[Fraction, Fraction]] | None = None):
        c = {}
        if components:
            for rad, (re, im) in components.items():
                if rad not in RADICALS:
                    raise ValueError(f"unsupported radical {rad}")
                re, im = _frac(re), _frac(im)
                if re or im:
                    c[rad] = (re, im)
        self._c = c

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({1: (_ONE, _ZERO)})

    @staticmethod
    def i() -> "Scalar":
        return Scalar({1: (_ZERO, _ONE)})

    @staticmethod
    def rational(p, q=1) -> "Scalar":
        return Scalar({1: (Fraction(p, q), _ZERO)})

    @staticmethod
    def from_fraction(f: Fraction) -> "Scalar":
        return Scalar({1: (_frac(f), _ZERO)})

    @staticmethod
    def sqrt(r: int) -> "Scalar":
        if r not in (2, 3, 6):
            raise ValueError("only sqrt2, sqrt3, sqrt6 are representable")
        return Scalar({r: (_ONE, _ZERO)})

    @staticmethod
    def i_power(e: int) -> "Scalar":
        """i**e for any integer e."""
        e %= 4
        re, im = [(1, 0), (0, 1), (-1, 0), (0, -1)][e]
        return Scalar({1: (Fraction(re), Fraction(im))})

    # -- ring / field operations --------------------------------------

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        c = dict(self._c)
        for rad, (re, im) in other._c.items():
            r0, i0 = c.get(rad, (_ZERO, _ZERO))
            re, im = r0 + re, i0 + im
            if re or im:
                c[rad] = (re, im)
            elif rad in c:
                del c[rad]
        out = Scalar.__new__(Scalar)
        out._c = c
        return out

    def __sub__(self, other) -> "Scalar":
        return self + (-_coerce(other))

    def __neg__(self) -> "Scalar":
        out = Scalar.__new__(Scalar)
        out._c = {rad: (-re, -im) for rad, (re, im) in self._c.items()}
        return out

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        c: Dict[int, Tuple[Fraction, Fraction]] = {}
        for ra, (ar, ai) in self._c.items():
            for rb, (br, bi) in other._c.items():
                f, rad = _RADMUL[(ra, rb)]
                re = f * (ar * br - ai * bi)
                im = f * (ar * bi + ai * br)
                r0, i0 = c.get(rad, (_ZERO, _ZERO))
                c[rad] = (r0 + re, i0 + im)
        out = Scalar.__new__(Scalar)
        out._c = {rad: v for rad, v in c.items() if v[0] or v[1]}
        return out

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other) -> "Scalar":
        return _coerce(other) - self

    def __truediv__(self, other) -> "Scalar":
        return self * _coerce(other).inverse()

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i, radicals fixed."""
        out = Scalar.__new__(Scalar)
        out._c = {rad: (re, -im) for rad, (re, im) in self._c.items()}
        return out

    def _flip(self, r: int) -> "Scalar":
        # Galois conjugation sqrt(r) -> -sqrt(r); flips sqrt6 alongside.
        out = Scalar.__new__(Scalar)
        out._c = {
            rad: ((-re, -im) if rad % r == 0 and rad > 1 else (re, im))
            for rad, (re, im) in self._c.items()
        }
        return out

    def inverse(self) -> "Scalar":
        """Multiplicative inverse, by successive rationalization over sqrt3, sqrt2, i."""
        if not self._c:
            raise ZeroDivisionError("inverse of zero scalar")
        num = Scalar.one()
        x = self
        for r in (3, 2):
            y = x._flip(r)
            num = num * y
            x = x * y
        y = x.conjugate()
        num = num * y
        x = x * y
        (re, im) = x._c.get(1, (_ZERO, _ZERO))
        assert im == 0 and set(x._c) <= {1}, "rationalization failed"
        return num * Scalar.rational(re.denominator, re.numerator)

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Scalar, int, Fraction)):
            return NotImplemented
        return self._c == _coerce(other)._c

    def __hash__(self):
        # a rational value hashes as its Fraction, as __eq__ demands
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(tuple(sorted(self._c.items())))

    def real_part(self) -> "Scalar":
        """(x + conj x) / 2; drops every i-component."""
        out = Scalar.__new__(Scalar)
        out._c = {rad: (re, _ZERO) for rad, (re, im) in self._c.items() if re}
        return out

    def imag_part(self) -> "Scalar":
        """The coefficient of i, as a real Scalar."""
        out = Scalar.__new__(Scalar)
        out._c = {rad: (im, _ZERO) for rad, (re, im) in self._c.items() if im}
        return out

    def is_rational(self) -> bool:
        if not self._c:
            return True
        return set(self._c) == {1} and self._c[1][1] == 0

    def as_fraction(self) -> Fraction:
        if not self._c:
            return _ZERO
        if not self.is_rational():
            raise ValueError(f"not a rational scalar: {self}")
        return self._c[1][0]

    def component(self, rad: int) -> Tuple[Fraction, Fraction]:
        return self._c.get(rad, (_ZERO, _ZERO))

    # -- encodings -----------------------------------------------------

    _KEYS = {1: "1", 2: "sqrt2", 3: "sqrt3", 6: "sqrt6"}
    _RKEYS = {v: k for k, v in _KEYS.items()}

    def to_json(self) -> dict:
        out = {}
        for rad in RADICALS:
            if rad in self._c:
                re, im = self._c[rad]
                out[self._KEYS[rad]] = {
                    "re": f"{re.numerator}/{re.denominator}",
                    "im": f"{im.numerator}/{im.denominator}",
                }
        return out

    @staticmethod
    def from_json(obj: dict) -> "Scalar":
        comps = {}
        for key, pair in obj.items():
            rad = Scalar._RKEYS[key]
            comps[rad] = (Fraction(pair["re"]), Fraction(pair["im"]))
        return Scalar(comps)

    def latex(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for rad in RADICALS:
            if rad not in self._c:
                continue
            re, im = self._c[rad]
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
        if not self._c:
            return "0"
        parts = []
        for rad in RADICALS:
            if rad not in self._c:
                continue
            re, im = self._c[rad]
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
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar({1: (_frac(x), _ZERO)})
    raise TypeError(f"cannot coerce {x!r} to Scalar")


ZERO = Scalar.zero()
ONE = Scalar.one()
I = Scalar.i()
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

    def __add__(self, other: "Angle") -> "Angle":
        return Angle(self.k + other.k)

    def __neg__(self) -> "Angle":
        return Angle(-self.k)

    def __eq__(self, other) -> bool:
        return isinstance(other, Angle) and self.k == other.k

    def __hash__(self):
        return hash(("Angle", self.k))

    def __repr__(self):
        return f"Angle({self.k}*pi/12)"


def cos_sin(theta: Angle) -> Tuple[Scalar, Scalar]:
    return theta.cos(), theta.sin()
