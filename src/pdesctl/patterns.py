"""Control patterns, containment matrices, and pattern distributions.

A control pattern is a set of enabled events that always contains every
uncontrollable event.  Pattern j (0 <= j < 2^m) enables controllable
event number i exactly when bit i-1 of j is set, so the columns of the
containment matrix run through the binary numbers in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Set, Tuple

from .automata import Alphabet, InvariantError

Matrix = List[List[int]]


def containment_matrix(m: int) -> Matrix:
    """m x 2^m binary matrix whose column j is the binary form of j."""
    if m < 0:
        raise InvariantError("m must be nonnegative")
    return [[(j >> i) & 1 for j in range(2**m)] for i in range(m)]


def complete_containment_matrix(m: int, n: int) -> Matrix:
    """containment_matrix(m) extended with n-m all-ones rows for the
    uncontrollable events, which belong to every pattern."""
    if n < m:
        raise InvariantError("n must be at least m")
    rows = containment_matrix(m)
    rows.extend([[1] * (2**m) for _ in range(n - m)])
    return rows


def pattern_enables(j: int, i: int) -> bool:
    """Whether pattern j enables controllable event number i (0-based)."""
    return (j >> i) & 1 == 1


def pattern_events(j: int, alphabet: Alphabet) -> Set[str]:
    """The event set of pattern j: selected controllables plus all
    uncontrollables."""
    enabled = {e for k, e in enumerate(alphabet.controllable_events()) if pattern_enables(j, k)}
    return enabled | set(alphabet.uncontrollable_events())


@dataclass(frozen=True)
class PatternDistribution:
    """Probability vector over the 2^m control patterns."""

    probs: Tuple[Fraction, ...]

    def __post_init__(self):
        size = len(self.probs)
        if size == 0 or size & (size - 1):
            raise InvariantError("distribution length must be a power of two")
        object.__setattr__(self, "probs", tuple(Fraction(p) for p in self.probs))
        if any(p < 0 for p in self.probs):
            raise InvariantError("pattern probabilities must be nonnegative")
        if sum(self.probs) != 1:
            raise InvariantError("pattern probabilities must sum to exactly 1")

    @property
    def m(self) -> int:
        return len(self.probs).bit_length() - 1

    def support(self) -> List[Tuple[int, Fraction]]:
        return [(j, p) for j, p in enumerate(self.probs) if p > 0]


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
    out = []
    for i in range(m):
        out.append(sum((p for j, p in enumerate(dist.probs) if pattern_enables(j, i)), Fraction(0)))
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
    probs = [Fraction(0)] * (2**m)
    if m == 0:
        probs[0] = Fraction(1)
        return PatternDistribution(tuple(probs))
    order = sorted(range(m), key=lambda i: (-factors[i], i))
    sorted_vals = [factors[i] for i in order]
    # pattern enabling the top-j sorted events
    def top_pattern(j: int) -> int:
        code = 0
        for i in order[:j]:
            code |= 1 << i
        return code

    probs[top_pattern(m)] += sorted_vals[m - 1]
    for j in range(1, m):
        probs[top_pattern(j)] += sorted_vals[j - 1] - sorted_vals[j]
    probs[0] += 1 - sorted_vals[0]
    return PatternDistribution(tuple(probs))

