"""Exact probability values.

Probabilities are exact rationals, optionally scaled by a power of a
symbolic positive infinitesimal (written ``0+`` in the text formats).
The infinitesimal marks transitions that exist for logical closure
reasons but carry no committed probability mass; it compares below
every ordinary positive rational and multiplies by adding degrees.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

Rat = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+|\.\d+)?$")
_EPS_RE = re.compile(r"^0\+(?:\^(\d+))?(?:[·*](.+))?$")


def parse_rat(text: str) -> Fraction:
    """Parse ``p/q``, integer or decimal notation into an exact rational."""
    text = text.strip()
    if not _RAT_RE.match(text):
        raise ValueError(f"malformed rational: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rat(value: Fraction, style: str = "decimal") -> str:
    """Render a rational exactly.

    ``decimal`` style uses positional notation whenever the denominator
    is of the form 2^a*5^b (so the string parses back to the same value),
    and falls back to ``p/q`` otherwise.  ``fraction`` style always uses
    ``p/q`` (or a bare integer).
    """
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


@dataclass(frozen=True)
class EpsProb:
    """A nonnegative rational magnitude times the infinitesimal to a power.

    The canonical zero has degree 0.  Total order for positive values:
    lower degree wins, then larger magnitude; zero is least.
    """

    magnitude: Fraction = Fraction(0)
    eps_degree: int = 0

    def __post_init__(self):
        if not isinstance(self.magnitude, Fraction):
            object.__setattr__(self, "magnitude", Fraction(self.magnitude))
        if self.magnitude < 0:
            raise ValueError("probability magnitude must be nonnegative")
        if self.eps_degree < 0:
            raise ValueError("infinitesimal degree must be nonnegative")
        if self.magnitude == 0 and self.eps_degree != 0:
            object.__setattr__(self, "eps_degree", 0)

    @classmethod
    def from_rat(cls, value) -> "EpsProb":
        return cls(Fraction(value), 0)

    @property
    def is_zero(self) -> bool:
        return self.magnitude == 0

    @property
    def is_ordinary(self) -> bool:
        """True for plain rationals (degree 0), including zero."""
        return self.eps_degree == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def _cmp(self, other: "EpsProb") -> int:
        if self.magnitude == other.magnitude and self.eps_degree == other.eps_degree:
            return 0
        if self.is_zero:
            return -1
        if other.is_zero:
            return 1
        if self.eps_degree != other.eps_degree:
            # higher degree means a smaller value
            return -1 if self.eps_degree > other.eps_degree else 1
        return -1 if self.magnitude < other.magnitude else 1

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            other = EpsProb(Fraction(other))
        if not isinstance(other, EpsProb):
            return NotImplemented
        return EpsProb(self.magnitude * other.magnitude, self.eps_degree + other.eps_degree)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (Fraction, int)):
            other = EpsProb(Fraction(other))
        if not isinstance(other, EpsProb):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division of a probability by zero")
        if self.eps_degree < other.eps_degree:
            raise ValueError("quotient would have negative infinitesimal degree")
        return EpsProb(self.magnitude / other.magnitude, self.eps_degree - other.eps_degree)

    def __add__(self, other):
        """Dominant-term addition: the lower-degree term absorbs the other."""
        if not isinstance(other, EpsProb):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.eps_degree == other.eps_degree:
            return EpsProb(self.magnitude + other.magnitude, self.eps_degree)
        return self if self.eps_degree < other.eps_degree else other

    def __str__(self) -> str:
        return format_prob(self)

    def __repr__(self) -> str:
        return f"EpsProb({self.magnitude!r}, {self.eps_degree})"


ZERO = EpsProb()
ONE = EpsProb(Fraction(1))
EPS = EpsProb(Fraction(1), 1)


def eps_mul(a: EpsProb, b: EpsProb) -> EpsProb:
    """Product: magnitudes multiply, degrees add."""
    return a * b


def eps_cmp(a: EpsProb, b: EpsProb) -> int:
    """-1, 0 or 1 under the total order described on EpsProb."""
    return a._cmp(b)


def eps_sum_lower(a: EpsProb, b: EpsProb) -> EpsProb:
    """Dominant-term sum, used when checking per-state liveness bounds."""
    return a + b


def parse_prob(text: str) -> EpsProb:
    """Parse any textual probability form: ``0``, ``p/q``, ``0.375``,
    ``0+``, ``0+^d`` or ``0+^d·p/q`` (``*`` accepted for ``·``)."""
    text = text.strip()
    m = _EPS_RE.match(text)
    if m:
        degree = int(m.group(1)) if m.group(1) else 1
        magnitude = parse_rat(m.group(2)) if m.group(2) else Fraction(1)
        if magnitude <= 0:
            raise ValueError(f"infinitesimal magnitude must be positive: {text!r}")
        return EpsProb(magnitude, degree)
    value = parse_rat(text)
    if value < 0:
        raise ValueError(f"probability cannot be negative: {text!r}")
    return EpsProb(value)


def format_prob(p: EpsProb, style: str = "decimal") -> str:
    if p.eps_degree == 0:
        return format_rat(p.magnitude, style)
    if p.magnitude == 1:
        return "0+" if p.eps_degree == 1 else f"0+^{p.eps_degree}"
    return f"0+^{p.eps_degree}·{format_rat(p.magnitude, 'fraction')}"
