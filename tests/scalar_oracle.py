"""The dict-of-Fraction scalar, kept as the test oracle of ``spinbits.scalars``.

``DictScalar`` stores x = sum_r (re_r + im_r * i) * sqrt(r), r in {1, 2, 3, 6},
as a map from the radical r to an exact ``Fraction`` pair, zero pairs
omitted.  It is the representation ``Scalar`` had before it moved to
integer numerators over one denominator, and it is deliberately naive:
every product runs the radical rule on ``Fraction`` pairs, read off its own
square-factor table.  ``scalar_of`` builds the ``Scalar`` of the same
components through the field operations.  ``slot_table`` and ``FLIP_MASKS``
are the product table and sign masks of ``Scalar``'s slots rebuilt from
that radical rule, the route the slot bits replaced.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from spinbits.scalars import I, ONE, RADICALS, ZERO, Scalar

_ZERO = Fraction(0)
_ONE = Fraction(1)

# sqrt(a) * sqrt(b) = _RADMUL[a, b][0] * sqrt(_RADMUL[a, b][1]): the largest
# square factor of a * b comes out of the root
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


def slot_table():
    """Slot k of a Scalar holds i^(k % 2) sqrt(RADICALS[k // 2]); slot a times
    slot b is table[a][b][1] times slot table[a][b][0], by the radical rule."""
    table = []
    for a in range(8):
        table.append([])
        for b in range(8):
            f, rad = _RADMUL[RADICALS[a // 2], RADICALS[b // 2]]
            table[a].append((2 * RADICALS.index(rad) + (a + b) % 2, -f if a & b & 1 else f))
    return table


# the slots' signs under i -> -i, sqrt2 -> -sqrt2 and sqrt3 -> -sqrt3 (sqrt6 flips with either radical)
FLIP_MASKS = {
    "i": (1, -1) * 4,
    "sqrt2": tuple(-1 if rad % 2 == 0 else 1 for rad in RADICALS for _ in "ri"),
    "sqrt3": tuple(-1 if rad % 3 == 0 else 1 for rad in RADICALS for _ in "ri"),
}


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _frac_tex(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"\\frac{{{f.numerator}}}{{{f.denominator}}}"


def scalar_of(components: Dict[int, Tuple[Fraction, Fraction]]) -> Scalar:
    """The Scalar sum of (re + im i) sqrt(rad) over the {rad: (re, im)} components."""
    total = ZERO
    for rad, (re, im) in components.items():
        unit = ONE if rad == 1 else Scalar.sqrt(rad)
        total = total + (Scalar.rational(re) + I * Scalar.rational(im)) * unit
    return total


class DictScalar:
    """An element of Q(i, sqrt2, sqrt3) as a dict of Fraction pairs."""

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

    @staticmethod
    def one() -> "DictScalar":
        return DictScalar({1: (_ONE, _ZERO)})

    @staticmethod
    def rational(p, q=1) -> "DictScalar":
        return DictScalar({1: (Fraction(p, q), _ZERO)})

    def __add__(self, other) -> "DictScalar":
        other = _coerce(other)
        c = dict(self._c)
        for rad, (re, im) in other._c.items():
            r0, i0 = c.get(rad, (_ZERO, _ZERO))
            re, im = r0 + re, i0 + im
            if re or im:
                c[rad] = (re, im)
            elif rad in c:
                del c[rad]
        out = DictScalar.__new__(DictScalar)
        out._c = c
        return out

    def __sub__(self, other) -> "DictScalar":
        return self + (-_coerce(other))

    def __neg__(self) -> "DictScalar":
        out = DictScalar.__new__(DictScalar)
        out._c = {rad: (-re, -im) for rad, (re, im) in self._c.items()}
        return out

    def __mul__(self, other) -> "DictScalar":
        other = _coerce(other)
        c: Dict[int, Tuple[Fraction, Fraction]] = {}
        for ra, (ar, ai) in self._c.items():
            for rb, (br, bi) in other._c.items():
                f, rad = _RADMUL[(ra, rb)]
                re = f * (ar * br - ai * bi)
                im = f * (ar * bi + ai * br)
                r0, i0 = c.get(rad, (_ZERO, _ZERO))
                c[rad] = (r0 + re, i0 + im)
        out = DictScalar.__new__(DictScalar)
        out._c = {rad: v for rad, v in c.items() if v[0] or v[1]}
        return out

    def __truediv__(self, other) -> "DictScalar":
        return self * _coerce(other).inverse()

    def conjugate(self) -> "DictScalar":
        out = DictScalar.__new__(DictScalar)
        out._c = {rad: (re, -im) for rad, (re, im) in self._c.items()}
        return out

    def _flip(self, r: int) -> "DictScalar":
        out = DictScalar.__new__(DictScalar)
        out._c = {
            rad: ((-re, -im) if rad % r == 0 and rad > 1 else (re, im))
            for rad, (re, im) in self._c.items()
        }
        return out

    def inverse(self) -> "DictScalar":
        if not self._c:
            raise ZeroDivisionError("inverse of zero scalar")
        num = DictScalar.one()
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
        return num * DictScalar.rational(re.denominator, re.numerator)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (DictScalar, int, Fraction)):
            return NotImplemented
        return self._c == _coerce(other)._c

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_fraction())
        return hash(tuple(sorted(self._c.items())))

    def real_part(self) -> "DictScalar":
        out = DictScalar.__new__(DictScalar)
        out._c = {rad: (re, _ZERO) for rad, (re, im) in self._c.items() if re}
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

    _KEYS = {1: "1", 2: "sqrt2", 3: "sqrt3", 6: "sqrt6"}

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


def _coerce(x) -> DictScalar:
    if isinstance(x, DictScalar):
        return x
    if isinstance(x, (int, Fraction)):
        return DictScalar({1: (_frac(x), _ZERO)})
    raise TypeError(f"cannot coerce {x!r} to DictScalar")
