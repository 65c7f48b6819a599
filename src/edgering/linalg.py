"""Exact integer linear algebra: one fraction-free elimination kernel.

`eliminate` is Gauss-Jordan elimination in Bareiss's fraction-free form
(Sylvester's identity and multistep integer-preserving Gaussian elimination,
Math. Comp. 1968): every entry stays an integer minor of the input, so each
division by the previous pivot is exact. Rank, pivot columns and integer
inverses are all read off its output; no floating point or rational number
enters any geometric decision.
"""

from __future__ import annotations

from math import gcd


def primitive(vec) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries (sign preserved)."""
    vals = tuple(vec)
    g = gcd(*vals)
    return tuple(x // g for x in vals) if g > 1 else vals


def eliminate(rows, ncols: int | None = None) -> tuple[list[list[int]], list[int], int]:
    """Gauss-Jordan elimination of an integer matrix, fraction-free (Bareiss).

    Pivots left to right on the first `ncols` columns (default: all of them),
    swapping rows as needed. Returns `(reduced, pivots, det)`: `reduced[i]`
    for `i < len(pivots)` is the i-th pivot row, every pivot entry equals
    `det`, and every other entry of a pivot column is 0. `len(pivots)` is the
    rank of those columns, and `det` is the determinant, up to the sign of the
    row permutation, of the submatrix on the pivot rows and columns (1 when
    there are no pivots).

    For a nonsingular square B, eliminating [B | I] leaves [det*I | det*B^-1].
    """
    mat = [[int(x) for x in row] for row in rows]
    if ncols is None:
        ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[col]
        for i, row in enumerate(mat):
            if i == r:
                continue
            f = row[col]
            if f:
                mat[i] = [(p * a - f * b) // prev for a, b in zip(row, prow)]
            elif p != prev:
                mat[i] = [p * a // prev for a in row]
        pivots.append(col)
        prev = p
        r += 1
    return mat, pivots, prev
