"""Degree-bounded analysis of the defining ideal of an edge ring.

The defining ideal is spanned in each degree by differences of monomials
sharing a multidegree (a fiber). A relation u - v lies in the subideal
generated below degree q exactly when u and v are linked by moves that cancel
a common variable, so a fiber contributes its number of gcd-connectivity
components minus one minimal generators. One pass per degree counts them for
every fiber at once: base-16 multidegree codes, one sort, and the components
of one graph linking the monomials of a fiber that share an edge variable.
The tests check it against a fiber-by-fiber search (tests/oracles.py) and
exact linear algebra. Results are certified only up to the degree bound,
which the profile records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ehrhart import MAX_Q, BudgetExceededError, _compositions, _radix_weights, _unpack
from .graphs import Graph
from .polytope import InvariantViolationError

DEFAULT_MONOMIAL_BUDGET = 2_000_000


@dataclass(frozen=True)
class Fiber:
    """All degree-q edge multisets sharing one multidegree (at least two)."""

    multidegree: tuple[int, ...]
    monomials: tuple[tuple[tuple[int, int], ...], ...]

    def __len__(self) -> int:
        return len(self.monomials)


@dataclass(frozen=True)
class GeneratorProfile:
    """Degrees of minimal generators found up to a degree bound."""

    degrees: tuple[int, ...]
    complete_up_to: int

    @property
    def total(self) -> int:
        return len(self.degrees)

    @property
    def principal_reg(self) -> int | None:
        """Regularity D - 1 when exactly one generator, of degree D, was found
        up to the bound (a hypersurface ring); None otherwise."""
        return self.degrees[0] - 1 if self.total == 1 else None

    def to_dict(self) -> dict:
        return {"degrees": list(self.degrees), "complete_up_to": self.complete_up_to}


def _guard(g: Graph, q: int, budget: int) -> None:
    count = math.comb(g.m + q - 1, q)
    if count > budget:
        raise BudgetExceededError(
            f"degree {q} needs {count} edge multisets, over the budget {budget}"
        )
    if q > MAX_Q:
        raise BudgetExceededError(f"degree {q} exceeds the supported bound {MAX_Q}")


def _shared_fibers(g: Graph, q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(expo, rows, codes, fiber): all degree-q exponent vectors, the indices
    of those sharing their multidegree sorted by its base-16 code, the codes,
    and fiber numbers 1, 2, ... along `rows`. Coordinates are at most q."""
    expo = _compositions(q, g.m, q)
    weights = _radix_weights(g.d, q)
    codes = np.zeros(len(expo), dtype=np.int64)
    for k, (i, j) in enumerate(g.edges):
        # column by column, as `expo @ deltas` would cast all of expo to int64;
        # int64 before the product, which numpy 1 would size by the weight
        codes += expo[:, k].astype(np.int64) * (weights[i - 1] + weights[j - 1])
    order = np.argsort(codes)
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    shared = ~first
    shared[:-1] |= ~first[1:]
    return expo, order[shared], codes[shared], np.cumsum(first[shared])


def _components(a: np.ndarray, b: np.ndarray, n: int) -> int:
    """Connected components of the graph on nodes 0..n-1 with edges (a, b).

    Min-label propagation with pointer jumping: each round hooks both roots
    of every unsettled edge onto the smaller one, jumps every pointer to its
    root and drops the edges now inside one star. Some edge settles in each
    round, so the loop ends with one star per component, on its least node.
    """
    label = np.arange(n, dtype=np.min_scalar_type(n))
    while len(a):
        ra, rb = label[a], label[b]
        low = np.minimum(ra, rb)
        np.minimum.at(label, ra, low)
        np.minimum.at(label, rb, low)
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
        unsettled = label[a] != label[b]
        if unsettled.all():
            raise InvariantViolationError("component labels stopped merging")
        a, b = a[unsettled], b[unsettled]
    return int(np.count_nonzero(label == np.arange(n)))


def _generator_count(g: Graph, q: int) -> int:
    """Minimal generators at degree q: the gcd-connectivity components of all
    shared fibers, minus the number of shared fibers."""
    expo, rows, _, fiber = _shared_fibers(g, q)
    a, b = [], []
    for k in range(g.m):
        # the shared monomials using edge variable k, in fiber order; links
        # between neighbours in the same fiber join all of them
        uses = np.flatnonzero(expo[rows, k]).astype(np.min_scalar_type(len(rows)))
        same = fiber[uses[1:]] == fiber[uses[:-1]]
        a.append(uses[:-1][same])
        b.append(uses[1:][same])
    return _components(np.concatenate(a), np.concatenate(b), len(rows)) - int(fiber.max(initial=0))


def fibers(g: Graph, q: int) -> list[Fiber]:
    """Fibers at degree q with at least two monomials, sorted by multidegree."""
    if q < 1:
        raise ValueError("q must be >= 1")
    _guard(g, q, DEFAULT_MONOMIAL_BUDGET)
    expo, rows, codes, fiber = _shared_fibers(g, q)
    starts = np.flatnonzero(np.diff(fiber, prepend=0))
    bounds = starts.tolist() + [len(rows)]
    out = []
    for multidegree, s, e in zip(map(tuple, _unpack(codes[starts], g.d).tolist()), bounds, bounds[1:]):
        monos = tuple(sorted(tuple(edge for edge, c in zip(g.edges, expo[r].tolist())
                                   for _ in range(c)) for r in rows[s:e]))
        out.append(Fiber(multidegree, monos))
    out.sort(key=lambda f: f.multidegree)
    return out


def minimal_generator_degrees(
    g: Graph, q_max: int, budget: int = DEFAULT_MONOMIAL_BUDGET
) -> GeneratorProfile:
    """Count minimal generators of the defining ideal per degree, up to q_max.

    Each fiber contributes (components of its gcd graph - 1) generators at its
    degree; degrees are returned as a sorted multiset. Every degree is checked
    against the budget before any is counted.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    for q in range(2, q_max + 1):
        _guard(g, q, budget)
    degrees = [q for q in range(2, q_max + 1) for _ in range(_generator_count(g, q))]
    return GeneratorProfile(tuple(degrees), q_max)
