import random
from fractions import Fraction
from itertools import permutations

from edgering.linalg import eliminate, primitive
from oracles import frac_rank, frac_solve_square


def _random_matrix(rng, nrows, ncols, rank):
    """An nrows x ncols integer matrix of rank at most `rank` (a product)."""
    left = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(nrows)]
    right = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def _matrices(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        yield _random_matrix(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)))


def _greedy_pivot_columns(rows):
    """Left-to-right columns that raise the rank of the columns kept so far."""
    cols = list(zip(*rows))
    kept: list[int] = []
    for j in range(len(cols)):
        if frac_rank([cols[c] for c in kept + [j]]) > len(kept):
            kept.append(j)
    return kept


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def test_rank_and_pivot_columns_match_fraction_reference():
    for rows in _matrices(seed=11, count=400):
        reduced, pivots, det = eliminate(rows)
        assert len(pivots) == frac_rank(rows), rows
        assert pivots == _greedy_pivot_columns(rows), rows
        assert det != 0
        for i, col in enumerate(pivots):
            assert [row[col] for row in reduced] == [det if k == i else 0 for k in range(len(rows))]
        assert all(not any(row) for row in reduced[len(pivots):])


def test_inverse_of_square_matrix_matches_fraction_reference():
    rng = random.Random(12)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 5)
        b = _random_matrix(rng, n, n, n)
        if frac_rank(b) < n:
            continue
        checked += 1
        aug = [row + [int(i == j) for j in range(n)] for i, row in enumerate(b)]
        reduced, pivots, det = eliminate(aug, n)
        assert pivots == list(range(n))
        assert abs(det) == abs(_leibniz_det(b))
        for j in range(n):
            expected = frac_solve_square(b, [int(i == j) for i in range(n)])
            assert [Fraction(row[n + j], det) for row in reduced] == expected, b


def test_ncols_limits_the_pivot_search():
    # a singular left block: the right block is eliminated against its pivots only
    reduced, pivots, det = eliminate([[1, 2, 1, 0], [2, 4, 0, 1]], 2)
    assert pivots == [0]
    assert det == 1
    assert reduced == [[1, 2, 1, 0], [0, 0, -2, 1]]


def test_empty_and_zero_inputs():
    assert eliminate([]) == ([], [], 1)
    assert eliminate([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [], 1)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-4, 6, 0)) == (-2, 3, 0)
