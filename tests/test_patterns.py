import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdesctl import (
    InvariantError,
    PatternDistribution,
    distribution_from_marginals,
    marginals_of,
    pattern_enables,
)

F = Fraction


class TestPatternDistribution:
    def test_validates(self):
        with pytest.raises(InvariantError, match="out of range"):
            PatternDistribution(1, {2: F(1)})
        with pytest.raises(InvariantError, match="out of range"):
            PatternDistribution(2, {-1: F(1, 2), 0: F(1, 2)})
        with pytest.raises(InvariantError, match="sum to exactly 1"):
            PatternDistribution(1, {0: F(1, 2), 1: F(1, 4)})
        with pytest.raises(InvariantError, match="nonnegative"):
            PatternDistribution(1, {0: F(3, 2), 1: F(-1, 2)})
        with pytest.raises(InvariantError, match="nonnegative"):
            PatternDistribution(-1, {0: F(1)})

    def test_support(self):
        d = PatternDistribution(2, {3: F(4, 5), 0: F(0), 2: F(1, 5)})
        assert d.support() == [(2, F(1, 5)), (3, F(4, 5))]
        assert d.m == 2
        assert d == PatternDistribution(2, {2: F(1, 5), 3: F(4, 5)})


class TestMarginals:
    def test_worked_vector(self):
        d = PatternDistribution(2, {2: F(1, 5), 3: F(4, 5)})
        assert marginals_of(d, 2, 5) == (F(4, 5), F(1), F(1), F(1), F(1))

    def test_full_pattern_point_mass(self):
        d = PatternDistribution(2, {3: F(1)})
        assert marginals_of(d, 2, 3) == (F(1), F(1), F(1))

    def test_empty_pattern_point_mass(self):
        d = PatternDistribution(2, {0: F(1)})
        assert marginals_of(d, 2, 3) == (F(0), F(0), F(1))


class TestNestedConstruction:
    def test_worked_vector(self):
        d = distribution_from_marginals((F(4, 5), F(1), F(1), F(1), F(1)), 2, 5)
        assert d.support() == [(2, F(1, 5)), (3, F(4, 5))]

    def test_all_ones(self):
        d = distribution_from_marginals((F(1), F(1), F(1)), 2, 3)
        assert d.support() == [(3, F(1))]

    def test_all_zero_controllables(self):
        d = distribution_from_marginals((F(0), F(0), F(1)), 2, 3)
        assert d.support() == [(0, F(1))]

    def test_no_controllables(self):
        d = distribution_from_marginals((F(1),), 0, 1)
        assert d.support() == [(0, F(1))]

    def test_rejects_invalid_vectors(self):
        with pytest.raises(InvariantError):
            distribution_from_marginals((F(3, 2), F(1)), 1, 2)
        with pytest.raises(InvariantError):
            distribution_from_marginals((F(1, 2), F(1, 2)), 1, 2)

    def test_support_size_bound(self):
        rng = random.Random(3)
        for _ in range(50):
            m = rng.randint(0, 6)
            vec = [F(rng.randint(0, 8), 8) for _ in range(m)] + [F(1)]
            d = distribution_from_marginals(vec, m, m + 1)
            assert len(d.support()) <= m + 1

    @settings(max_examples=120)
    @given(st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12),
                    min_size=0, max_size=6))
    def test_roundtrip_exact(self, ctrl):
        m = len(ctrl)
        vec = tuple(ctrl) + (F(1),)
        d = distribution_from_marginals(vec, m, m + 1)
        assert marginals_of(d, m, m + 1) == vec
        assert sum(p for _, p in d.support()) == 1
        assert all(p > 0 for _, p in d.support())

    def test_roundtrip_at_forty_events(self):
        rng = random.Random(40)
        m = 40
        vec = tuple(rng.choice([F(0), F(1), F(1, 3), F(rng.randint(0, 9), 9)]) for _ in range(m))
        vec += (F(1), F(1))
        start = time.perf_counter()
        d = distribution_from_marginals(vec, m, m + 2)
        assert marginals_of(d, m, m + 2) == vec
        assert time.perf_counter() - start < 0.5
        assert len(d.support()) <= m + 1


def vertex_solutions(vec, m):
    """Independent feasibility oracle: enumerate basic solutions of the
    marginal equations (plus total mass one) with support of size at most
    m+1, by exact Gaussian elimination."""
    npat = 2**m
    rows = []
    for i in range(m):
        rows.append([F(1) if pattern_enables(j, i) else F(0) for j in range(npat)] + [vec[i]])
    rows.append([F(1)] * npat + [F(1)])

    solutions = []
    for support in itertools.combinations(range(npat), min(m + 1, npat)):
        mat = [[row[j] for j in support] + [row[-1]] for row in rows]
        # Gaussian elimination over the support columns
        ncols = len(support)
        r = 0
        ok = True
        where = [-1] * ncols
        for c in range(ncols):
            pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
            if pivot is None:
                continue
            mat[r], mat[pivot] = mat[pivot], mat[r]
            inv = mat[r][c]
            mat[r] = [v / inv for v in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c] != 0:
                    f = mat[i][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            where[c] = r
            r += 1
        if any(all(v == 0 for v in row[:-1]) and row[-1] != 0 for row in mat):
            continue  # inconsistent
        if any(w == -1 for w in where):
            continue  # underdetermined on this support; skip, another basis covers it
        xs = [F(0)] * npat
        for c, j in enumerate(support):
            xs[j] = mat[where[c]][-1]
        if all(x >= 0 for x in xs):
            solutions.append(tuple(xs))
    return solutions


class TestFeasibilityOracle:
    def test_nested_agrees_with_vertex_enumeration(self):
        rng = random.Random(17)
        for _ in range(25):
            m = rng.randint(1, 4)
            vec = tuple(F(rng.randint(0, 6), 6) for _ in range(m)) + (F(1),)
            sols = vertex_solutions(vec, m)
            assert sols, f"oracle found no feasible vertex for {vec}"
            d = distribution_from_marginals(vec, m, m + 1)
            target = marginals_of(d, m, m + 1)
            for sol in sols:
                dist = PatternDistribution(m, dict(enumerate(sol)))
                assert marginals_of(dist, m, m + 1) == target
