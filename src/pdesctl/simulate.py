"""Monte-Carlo execution of a plant under a supervisor map.

Each trial replays the roulette semantics: at every step the supervisor
samples a control pattern for the current observation class, then the
plant fires one of the enabled transitions (or terminates with the
residual probability mass).  Both draws are exact: a roulette and a
plant row are integer weights over their common denominator, and each
draw is a uniform integer below that denominator.  A trial takes its
bits from one pool keyed by (seed, trial index), the BLAKE2b hash of
the key, so reports are reproducible and aggregation order does not
matter.

Sampling walks per-state transition rows built once before the trials.
The exact target of each reported string is computed once, along the
prefix trie of the observed strings: the target of ``w·e`` is the target
of ``w`` times one controlled step, the plant probability of ``e`` times
its enable probability under the roulette of the class of ``w``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from .automata import InvariantError, Pdes, State, Word
from .supervisor import SupervisorMap, _enable_vector
from .values import _Table


@dataclass(frozen=True)
class TrialConfig:
    trials: int
    max_depth: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise InvariantError("trials must be at least 1")
        if self.max_depth < 1:
            raise InvariantError("max_depth must be at least 1")


@dataclass(frozen=True)
class ReportRow:
    count: int
    empirical: float
    target: Fraction
    stderr: float


@dataclass(frozen=True)
class FrequencyReport:
    trials: int
    rows: Dict[Word, ReportRow]

    def to_tsv(self) -> str:
        lines = ["string\tcount\tempirical\ttarget\tstderr"]
        for word in sorted(self.rows, key=lambda w: (len(w), w)):
            row = self.rows[word]
            name = ".".join(word) if word else "eps"
            lines.append(
                f"{name}\t{row.count}\t{row.empirical:.6g}\t{float(row.target):.6g}\t{row.stderr:.6g}"
            )
        return "\n".join(lines) + "\n"


class _BitPool:
    """The bits of the 512-bit BLAKE2b blocks of one key, used low bits
    first.  Block b hashes the key with salt b, so block 0 is the plain
    hash; the next block is appended only when a draw needs more bits
    than are left."""

    __slots__ = ("key", "blocks", "bits", "left")

    def __init__(self, key: bytes):
        self.key = key
        self.blocks = 1
        self.bits = int.from_bytes(blake2b(key, digest_size=64).digest(), "little")
        self.left = 512

    def below(self, n: int) -> int:
        """A uniform integer in [0, n): k = (n - 1).bit_length() bits at a
        time, a value of n or more rejected; n = 1 takes no bits."""
        k = (n - 1).bit_length()
        while True:
            while self.left < k:
                block = blake2b(self.key, digest_size=64, salt=self.blocks.to_bytes(16, "little")).digest()
                self.bits |= int.from_bytes(block, "little") << self.left
                self.blocks += 1
                self.left += 512
            value = self.bits & ((1 << k) - 1)
            self.bits >>= k
            self.left -= k
            if value < n:
                return value


def run_trials(plant: Pdes, sup: SupervisorMap, cfg: TrialConfig) -> FrequencyReport:
    if sup.alphabet != plant.alphabet:
        raise InvariantError("supervisor alphabet does not match the plant")
    if plant.has_eps_probabilities():
        raise InvariantError("simulation requires ordinary probabilities")
    alphabet = plant.alphabet
    m = alphabet.m
    classes = sup.classes

    # per plant state, the common denominator of its row and its
    # transitions in event order as (controllable index or -1, event,
    # target state, integer weight over that denominator)
    rows: Dict[State, Tuple[int, List[Tuple[int, str, State, int]]]] = {}
    for x, row in plant._out.items():
        edges = []
        for e, (dst, p) in row.items():
            i = alphabet.index(e)
            edges.append((i if i < m else -1, e, dst, p.magnitude))
        den = math.lcm(*[p.denominator for *_, p in edges])
        rows[x] = (den, [(i, e, dst, p.numerator * (den // p.denominator)) for i, e, dst, p in edges])

    def roulette(cls: Optional[int]) -> Tuple[int, List[Tuple[int, int]]]:
        """The common denominator of the class's roulette and its
        cumulative integer weights in pattern order, as (weight, pattern);
        the last weight is the denominator, since the roulette sums to 1."""
        support = sup.distribution(cls).support()
        den = math.lcm(*[p.denominator for _, p in support])
        acc = 0
        table = []
        for j, p in support:
            acc += p.numerator * (den // p.denominator)
            table.append((acc, j))
        return den, table

    roulettes = _Table(roulette)  # per class, built on first use

    counts: Dict[Word, int] = {(): cfg.trials}
    for trial in range(cfg.trials):
        below = _BitPool(f"{cfg.seed}:{trial}".encode()).below
        state = plant.initial
        cls = classes.initial
        word: Word = ()
        for _ in range(cfg.max_depth):
            den, table = roulettes[cls]
            u = below(den)
            for acc, pattern in table:
                if u < acc:
                    break
            den, edges = rows[state]
            u = below(den)
            acc = 0
            for i, e, dst, weight in edges:
                if i >= 0 and not (pattern >> i) & 1:  # disabled by the pattern
                    continue
                acc += weight
                if u < acc:
                    break
            else:
                break  # terminated with the residual mass
            state = dst
            cls = classes.step(cls, e)
            word += (e,)
            counts[word] = counts.get(word, 0) + 1

    # exact targets along the prefix trie: every observed string's prefixes
    # were observed too, so in length order each parent comes first
    enables = _Table(lambda cls: _enable_vector(sup, cls))
    # string -> (plant state, observation class, target)
    node: Dict[Word, Tuple[State, Optional[int], Fraction]] = {
        (): (plant.initial, classes.initial, Fraction(1))
    }
    for word in sorted(counts, key=len)[1:]:  # the root () sorts first
        x, cls, value = node[word[:-1]]
        e = word[-1]
        dst, p = plant.step(x, e)
        step = p.magnitude * enables[cls][alphabet.index(e)]
        node[word] = (dst, classes.step(cls, e), value * step)

    rows = {}
    for word, count in counts.items():
        empirical = count / cfg.trials
        stderr = (empirical * (1.0 - empirical) / cfg.trials) ** 0.5
        rows[word] = ReportRow(count, empirical, node[word][2], stderr)
    return FrequencyReport(cfg.trials, rows)
