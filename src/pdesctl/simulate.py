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

The trials walk one prefix trie of the strings they reach, each node
holding its string's count, plant state, observation class, and the
rows, roulettes and bit widths its draws read.  The exact target of a
string is taken when a trial first reaches it: the target of ``w·e`` is
the target of ``w`` times one controlled step, the plant probability of
``e`` times its enable probability under the roulette of the class of
``w``.  It is kept as an unreduced integer numerator and denominator,
reduced to one `Fraction` per reported string."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from .automata import InvariantError, Pdes, State, Word
from .supervisor import SupervisorMap
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


def run_trials(plant: Pdes, sup: SupervisorMap, cfg: TrialConfig) -> FrequencyReport:
    if sup.alphabet != plant.alphabet:
        raise InvariantError("supervisor alphabet does not match the plant")
    if plant.has_eps_probabilities():
        raise InvariantError("simulation requires ordinary probabilities")
    alphabet = plant.alphabet
    m = alphabet.m
    observable, trans = alphabet.observable, sup.classes.trans

    def width(den: int) -> Tuple[int, int, int]:
        """A draw below den: den, its bit width k = (den - 1).bit_length()
        and the mask of k bits."""
        k = (den - 1).bit_length()
        return den, k, (1 << k) - 1

    # per plant state, the width of its row's common denominator and its
    # transitions in event order as (controllable index or -1, event,
    # integer weight over that denominator)
    rows: Dict[State, Tuple[Tuple[int, int, int], List[Tuple[int, str, int]]]] = {}
    for x, row in plant._out.items():
        den = math.lcm(*[p.magnitude.denominator for _, p in row.values()])
        edges = []
        for e, (_, p) in row.items():
            i = alphabet.index(e)
            edges.append((i if i < m else -1, e, p.magnitude.numerator * (den // p.magnitude.denominator)))
        rows[x] = (width(den), edges)

    def roulette(cls: Optional[int]) -> Tuple[Tuple[int, int, int], List[Tuple[int, int]], List[int]]:
        """The width of the common denominator of the class's roulette,
        its cumulative integer weights in pattern order as (weight,
        pattern), and each event's enable weight over that denominator;
        the last cumulative weight is the denominator, since the roulette
        sums to 1."""
        support = sup.distribution(cls).support()
        den = math.lcm(*[p.denominator for _, p in support])
        acc = 0
        table = []
        enables = [0] * m + [den] * (alphabet.n - m)
        for j, p in support:
            weight = p.numerator * (den // p.denominator)
            acc += weight
            table.append((acc, j))
            for i in range(m):
                if j >> i & 1:
                    enables[i] += weight
        return width(den), table, enables

    roulettes = _Table(roulette)  # per class, built on first use

    # the prefix trie of the reached strings, one node per string:
    # [count, children by event, (roulette width, row width), roulette
    # table, row edges, plant state, class, string, target numerator,
    # target denominator]; the target stays an unreduced integer ratio
    # until the report
    def node(x: State, cls: Optional[int], word: Word, num: int, den: int) -> list:
        (rwidth, table, _), (xwidth, edges) = roulettes[cls], rows[x]
        return [0, {}, (rwidth, xwidth), table, edges, x, cls, word, num, den]

    def reach(parent: list, e: str, weight: int) -> list:
        """The child of a node by event e, of integer weight ``weight`` in
        its row, made when a trial first takes e there.  Its target is the
        parent's times one controlled step: the plant probability of e
        times its enable weight in the roulette of the parent's class."""
        _, children, ((rden, _, _), (xden, _, _)), _, _, x, cls, word, num, den = parent
        num, den = num * weight * roulettes[cls][2][alphabet.index(e)], den * xden * rden
        if cls is not None and e in observable:
            cls = trans.get((cls, e))
        child = children[e] = node(plant._out[x][e][0], cls, word + (e,), num, den)
        reached.append(child)
        return child

    root = node(plant.initial, sup.classes.initial, (), 1, 1)
    root[0] = cfg.trials
    reached = [root]
    for trial in range(cfg.trials):
        key = f"{cfg.seed}:{trial}".encode()
        bits, left, blocks = int.from_bytes(blake2b(key, digest_size=64).digest(), "little"), 512, 1
        at = root
        for _ in range(cfg.max_depth):
            # two draws, the roulette's and then the row's: after the loop v
            # holds the first and u the second
            u = None
            for n, k, mask in at[2]:
                v = u
                # a uniform integer below n from the bits of the key's
                # BLAKE2b blocks, low bits first: k = (n - 1).bit_length()
                # bits at a time, a value of n or more rejected (n = 1 takes
                # no bits).  Block b hashes the key with salt b, and is
                # appended only when a draw needs more bits than are left.
                while True:
                    while left < k:
                        block = blake2b(key, digest_size=64, salt=blocks.to_bytes(16, "little")).digest()
                        bits |= int.from_bytes(block, "little") << left
                        blocks += 1
                        left += 512
                    u = bits & mask
                    bits >>= k
                    left -= k
                    if u < n:
                        break
            for acc, pattern in at[3]:
                if v < acc:
                    break
            acc = 0
            for i, e, weight in at[4]:
                if i >= 0 and not (pattern >> i) & 1:  # disabled by the pattern
                    continue
                acc += weight
                if u < acc:
                    break
            else:
                break  # terminated with the residual mass
            at = at[1].get(e) or reach(at, e, weight)
            at[0] += 1

    report = {}
    for count, *_, word, num, den in reached:
        empirical = count / cfg.trials
        stderr = (empirical * (1.0 - empirical) / cfg.trials) ** 0.5
        report[word] = ReportRow(count, empirical, Fraction(num, den), stderr)
    return FrequencyReport(cfg.trials, report)
