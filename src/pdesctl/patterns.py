"""Control patterns and pattern distributions.

A control pattern is a set of enabled events that always contains every
uncontrollable event.  Pattern j (0 <= j < 2^m) enables controllable
event number i exactly when bit i-1 of j is set.  A pattern distribution
stores only its support: the patterns of positive probability, in
increasing pattern order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Sequence, Tuple

from .automata import InvariantError


def pattern_enables(j: int, i: int) -> bool:
    """Whether pattern j enables controllable event number i (0-based)."""
    return (j >> i) & 1 == 1


@dataclass(frozen=True, init=False)
class PatternDistribution:
    """Probability distribution over the 2^m control patterns of m
    controllable events, built from a ``{pattern: probability}`` mapping;
    zero entries are dropped."""

    m: int
    _support: Tuple[Tuple[int, Fraction], ...]

    def __init__(self, m: int, probs: Mapping[int, Fraction]):
        if m < 0:
            raise InvariantError("m must be nonnegative")
        support = tuple(sorted((j, Fraction(p)) for j, p in probs.items() if p != 0))
        if any(not 0 <= j < 2**m for j, _ in support):
            raise InvariantError(f"pattern index out of range for m = {m}")
        if any(p < 0 for _, p in support):
            raise InvariantError("pattern probabilities must be nonnegative")
        if sum(p for _, p in support) != 1:
            raise InvariantError("pattern probabilities must sum to exactly 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_support", support)

    def support(self) -> List[Tuple[int, Fraction]]:
        """The (pattern, probability) pairs of positive probability, in
        increasing pattern order."""
        return list(self._support)


def validate_scaling_vector(factors: Sequence[Fraction], m: int, n: int) -> Tuple[Fraction, ...]:
    """Check the shape of a per-event scaling vector: values in [0,1] for
    controllable entries, exactly 1 for uncontrollable entries."""
    factors = tuple(Fraction(f) for f in factors)
    if len(factors) != n:
        raise InvariantError(f"scaling vector must have {n} entries")
    for i, f in enumerate(factors):
        if i < m:
            if not 0 <= f <= 1:
                raise InvariantError(f"controllable scaling factor out of [0,1]: {f}")
        elif f != 1:
            raise InvariantError("uncontrollable scaling factors must equal 1")
    return factors


def marginals_of(dist: PatternDistribution, m: int, n: int) -> Tuple[Fraction, ...]:
    """Per-event enable probabilities of a pattern distribution.

    Entry i sums the pattern probabilities whose pattern enables event
    i; uncontrollable entries always come out as 1.
    """
    if dist.m != m:
        raise InvariantError("distribution size does not match m")
    out = [Fraction(0)] * m
    for j, p in dist.support():
        for i in range(m):
            if pattern_enables(j, i):
                out[i] += p
    out.extend([Fraction(1)] * (n - m))
    return validate_scaling_vector(out, m, n)


def distribution_from_marginals(factors: Sequence[Fraction], m: int, n: int) -> PatternDistribution:
    """A pattern distribution whose marginals equal the given vector.

    Uses the nested construction: sort the controllable factors in
    descending order (ties broken by event index); give the full pattern
    the smallest factor, each "top-j" pattern the gap between adjacent
    sorted factors, and the empty pattern the remaining mass.  At most
    m+1 patterns receive positive probability and the result is exact.
    """
    factors = validate_scaling_vector(factors, m, n)
    order = sorted(range(m), key=lambda i: (-factors[i], i))
    sorted_vals = [factors[i] for i in order] + [Fraction(0)]
    probs = {0: 1 - sorted_vals[0]}
    code = 0
    for j, i in enumerate(order):
        code |= 1 << i  # the pattern enabling the top j+1 sorted events
        probs[code] = sorted_vals[j] - sorted_vals[j + 1]
    return PatternDistribution(m, probs)
