"""The sampler that `pdesctl.simulate.run_trials` replaced, kept as the
reference its reports must equal: every draw is a call to `BitPool.below`,
and the exact targets come from a second walk over the reported strings
in length order, with `Fraction` products of one controlled step each."""

from __future__ import annotations

import math
from fractions import Fraction
from hashlib import blake2b
from typing import Dict, List, Optional, Tuple

from pdesctl import FrequencyReport, InvariantError, Pdes, ReportRow, SupervisorMap, TrialConfig
from pdesctl.automata import State, Word
from pdesctl.supervisor import _enable_vector
from pdesctl.values import _Table


class BitPool:
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


def reference_trials(plant: Pdes, sup: SupervisorMap, cfg: TrialConfig) -> FrequencyReport:
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
        support = sup.distribution(cls).support()
        den = math.lcm(*[p.denominator for _, p in support])
        acc = 0
        table = []
        for j, p in support:
            acc += p.numerator * (den // p.denominator)
            table.append((acc, j))
        return den, table

    roulettes = _Table(roulette)

    counts: Dict[Word, int] = {(): cfg.trials}
    for trial in range(cfg.trials):
        below = BitPool(f"{cfg.seed}:{trial}".encode()).below
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
                if i >= 0 and not (pattern >> i) & 1:
                    continue
                acc += weight
                if u < acc:
                    break
            else:
                break
            state = dst
            cls = classes.step(cls, e)
            word += (e,)
            counts[word] = counts.get(word, 0) + 1

    enables = _Table(lambda cls: _enable_vector(sup, cls))
    node: Dict[Word, Tuple[State, Optional[int], Fraction]] = {
        (): (plant.initial, classes.initial, Fraction(1))
    }
    for word in sorted(counts, key=len)[1:]:
        x, cls, value = node[word[:-1]]
        e = word[-1]
        dst, p = plant.step(x, e)
        step = p.magnitude * enables[cls][alphabet.index(e)]
        node[word] = (dst, classes.step(cls, e), value * step)

    out = {}
    for word, count in counts.items():
        empirical = count / cfg.trials
        stderr = (empirical * (1.0 - empirical) / cfg.trials) ** 0.5
        out[word] = ReportRow(count, empirical, node[word][2], stderr)
    return FrequencyReport(cfg.trials, out)
