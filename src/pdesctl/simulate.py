"""Monte-Carlo execution of a plant under a supervisor map.

Each trial replays the roulette semantics: at every step the supervisor
samples a control pattern for the current observation class, then the
plant fires one of the enabled transitions (or terminates with the
residual probability mass).  Each trial reseeds one generator from a
key of (seed, trial index), so reports are reproducible and aggregation
order does not matter.

Sampling walks per-state transition rows built once before the trials.
The exact target of each reported string is computed once, along the
prefix trie of the observed strings: the target of ``w·e`` is the target
of ``w`` times one controlled step, the plant probability of ``e`` times
its enable probability under the roulette of the class of ``w``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
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


def run_trials(plant: Pdes, sup: SupervisorMap, cfg: TrialConfig) -> FrequencyReport:
    if sup.alphabet != plant.alphabet:
        raise InvariantError("supervisor alphabet does not match the plant")
    if plant.has_eps_probabilities():
        raise InvariantError("simulation requires ordinary probabilities")
    alphabet = plant.alphabet
    m = alphabet.m
    classes = sup.classes

    # per plant state, its transitions in event order as
    # (controllable index or -1, event, target state, probability)
    moves: Dict[State, List[Tuple[int, str, State, float]]] = {}
    for x in plant.states:
        row = []
        for i, e in enumerate(alphabet.events):
            edge = plant.step(x, e)
            if edge is not None:
                row.append((i if i < m else -1, e, edge[0], float(edge[1].magnitude)))
        moves[x] = row

    def pattern_cdf(cls: Optional[int]) -> List[Tuple[float, int]]:
        """The cumulative pattern table of the class's roulette."""
        acc = 0.0
        table = []
        for j, p in sup.distribution(cls).support():
            acc += float(p)
            table.append((acc, j))
        return table

    cdfs = _Table(pattern_cdf)  # per class, built on first use

    counts: Dict[Word, int] = {(): cfg.trials}
    rng = random.Random()  # reseeded per trial, keyed by (seed, trial index)
    for trial in range(cfg.trials):
        digest = hashlib.blake2b(f"{cfg.seed}:{trial}".encode(), digest_size=8).digest()
        rng.seed(int.from_bytes(digest, "big"))
        state = plant.initial
        cls = classes.initial
        word: Word = ()
        for _ in range(cfg.max_depth):
            cdf = cdfs[cls]
            u = rng.random()
            pattern = None
            for acc, j in cdf:
                if u <= acc:
                    pattern = j
                    break
            if pattern is None:  # numeric slack on the last bucket
                pattern = cdf[-1][1]
            u = rng.random()
            acc = 0.0
            fired = None
            for i, e, dst, p in moves[state]:
                if i >= 0 and not (pattern >> i) & 1:  # disabled by the pattern
                    continue
                acc += p
                if u < acc:
                    fired = (e, dst)
                    break
            if fired is None:
                break  # terminated with the residual mass
            e, state = fired
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
