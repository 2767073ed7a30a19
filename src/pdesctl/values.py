"""Exact probability values.

Probabilities are exact rationals, optionally scaled by a power of a
symbolic positive infinitesimal (written ``0+`` in the text formats).
The infinitesimal marks transitions that exist for logical closure
reasons but carry no committed probability mass; it compares below
every ordinary positive rational and multiplies by adding degrees.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

_RAT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+)|\.(\d+))?$")
_EPS_RE = re.compile(r"^0\+(?:\^([1-9]\d*))?(?:[·*](.+))?$")


class _Table(dict):
    """A per-call table of ``fn`` over keys: ``table[key]`` computes
    ``fn(key)`` once, on first use.  A key whose ``fn`` raises is not
    stored, so it raises again wherever it recurs."""

    __slots__ = ("_fn",)

    def __init__(self, fn):
        self._fn = fn

    def __missing__(self, key):
        value = self[key] = self._fn(key)
        return value


def parse_rat(text: str) -> Fraction:
    """Parse ``p/q``, integer or decimal notation into an exact rational,
    built from the integers that the one match delimits."""
    text = text.strip()
    m = _RAT_RE.match(text)
    if not m:
        raise ValueError(f"malformed rational: {text!r}")
    whole, den, frac = m.groups()
    if den is not None:
        q = int(den)
        if not q:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(whole), q)
    if frac is not None:
        # two int() calls, as Fraction(text) makes: each part alone must fit
        # the interpreter's limit on the digits of one int() conversion
        scale, f = 10 ** len(frac), int(frac)
        return Fraction(int(whole) * scale + (-f if whole[0] == "-" else f), scale)
    return Fraction(int(whole))


def format_rat(value: Fraction, style: str = "decimal") -> str:
    """Render a rational exactly.

    ``decimal`` style uses positional notation whenever the denominator
    is of the form 2^a*5^b (so the string parses back to the same value),
    and falls back to ``p/q`` otherwise.  ``fraction`` style always uses
    ``p/q`` (or a bare integer).
    """
    if value.__class__ is not Fraction:
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    if style == "fraction":
        return f"{value.numerator}/{value.denominator}"
    d = value.denominator
    twos = fives = 0
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{value.numerator}/{value.denominator}"
    shift = max(twos, fives)
    scaled = abs(value.numerator) * 10**shift // value.denominator
    digits = str(scaled).rjust(shift + 1, "0")
    sign = "-" if value.numerator < 0 else ""
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}"


class EpsProb:
    """A nonnegative rational magnitude times the infinitesimal to a power.

    The canonical zero has degree 0.  Total order for positive values:
    lower degree wins, then larger magnitude; zero is least.  Values are
    immutable, and equal exactly when magnitude and degree are equal.
    """

    __slots__ = ("magnitude", "eps_degree")

    def __init__(self, magnitude=Fraction(0), eps_degree: int = 0):
        if not isinstance(magnitude, Fraction):
            magnitude = Fraction(magnitude)
        if magnitude < 0:
            raise ValueError("probability magnitude must be nonnegative")
        if eps_degree < 0:
            raise ValueError("infinitesimal degree must be nonnegative")
        if not magnitude:
            eps_degree = 0
        _set_magnitude(self, magnitude)
        _set_degree(self, eps_degree)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (EpsProb, (self.magnitude, self.eps_degree))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not EpsProb:
            return NotImplemented
        return self.eps_degree == other.eps_degree and self.magnitude == other.magnitude

    def __hash__(self):
        return hash((self.magnitude, self.eps_degree))

    @property
    def is_zero(self) -> bool:
        return not self.magnitude

    @property
    def is_ordinary(self) -> bool:
        """True for plain rationals (degree 0), including zero."""
        return self.eps_degree == 0

    def __bool__(self) -> bool:
        return bool(self.magnitude)

    def _cmp(self, other: "EpsProb") -> int:
        """-1, 0 or 1 under the total order."""
        a, b = self.magnitude, other.magnitude
        if not a:
            return -1 if b else 0
        if not b:
            return 1
        da, db = self.eps_degree, other.eps_degree
        if da != db:
            # higher degree means a smaller value
            return -1 if da > db else 1
        if a is b or a == b:
            return 0
        return -1 if a < b else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __mul__(self, other):
        """Magnitudes multiply, degrees add."""
        if other.__class__ is not EpsProb:
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = EpsProb(other)
        if not (self.magnitude and other.magnitude):
            return ZERO
        return _trusted(self.magnitude * other.magnitude, self.eps_degree + other.eps_degree)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not EpsProb:
            if not isinstance(other, (Fraction, int)):
                return NotImplemented
            other = EpsProb(other)
        if not other.magnitude:
            raise ZeroDivisionError("division of a probability by zero")
        if self.eps_degree < other.eps_degree:
            raise ValueError("quotient would have negative infinitesimal degree")
        return _trusted(self.magnitude / other.magnitude, self.eps_degree - other.eps_degree)

    def __add__(self, other):
        """Dominant-term addition: the lower-degree term absorbs the other."""
        if other.__class__ is not EpsProb:
            return NotImplemented
        if not self.magnitude:
            return other
        if not other.magnitude:
            return self
        if self.eps_degree == other.eps_degree:
            return _trusted(self.magnitude + other.magnitude, self.eps_degree)
        return self if self.eps_degree < other.eps_degree else other

    def __str__(self) -> str:
        return format_prob(self)

    def __repr__(self) -> str:
        return f"EpsProb({self.magnitude!r}, {self.eps_degree})"


_set_magnitude = EpsProb.magnitude.__set__
_set_degree = EpsProb.eps_degree.__set__


def _trusted(magnitude: Fraction, eps_degree: int) -> EpsProb:
    """An EpsProb from parts that are already canonical: a nonnegative
    Fraction, a nonnegative degree, and degree 0 when the magnitude is 0."""
    p = object.__new__(EpsProb)
    _set_magnitude(p, magnitude)
    _set_degree(p, eps_degree)
    return p


ZERO = EpsProb()
ONE = EpsProb(Fraction(1))
EPS = EpsProb(Fraction(1), 1)


def parse_prob(text: str) -> EpsProb:
    """Parse any textual probability form: ``0``, ``p/q``, ``0.375``,
    ``0+``, ``0+^d`` or ``0+^d·p/q`` (``*`` accepted for ``·``), with the
    degree d >= 1 written without leading zeros."""
    text = text.strip()
    if text.startswith("0+"):
        m = _EPS_RE.match(text)
        if m:
            degree = int(m.group(1)) if m.group(1) else 1
            magnitude = parse_rat(m.group(2)) if m.group(2) else Fraction(1)
            if magnitude.numerator <= 0:
                raise ValueError(f"infinitesimal magnitude must be positive: {text!r}")
            return _trusted(magnitude, degree)
        if text.startswith("0+^"):
            raise ValueError(f"infinitesimal degree must be a positive integer without leading zeros: {text!r}")
    value = parse_rat(text)
    if value.numerator < 0:
        raise ValueError(f"probability cannot be negative: {text!r}")
    return _trusted(value, 0)


def format_prob(p: EpsProb, style: str = "decimal") -> str:
    if p.eps_degree == 0:
        return format_rat(p.magnitude, style)
    if p.magnitude == 1:
        return "0+" if p.eps_degree == 1 else f"0+^{p.eps_degree}"
    return f"0+^{p.eps_degree}·{format_rat(p.magnitude, 'fraction')}"
