"""Degree-bounded analysis of the defining ideal of an edge ring.

The defining ideal is spanned in each degree by differences of monomials
sharing a multidegree (a fiber). A relation u - v lies in the subideal
generated below degree q exactly when u and v are linked by moves that cancel
a common variable, so a fiber contributes its number of gcd-connectivity
components minus one minimal generators. The monomials are walked one degree
at a time, each level a few gathers of the one below, and every row carries
its base-16 multidegree code and the bits of the edge variables it uses; no
exponent table is built. One pass per degree then counts the generators of
every fiber at once: one sort of the codes, and the components of one graph
linking the monomials of a fiber that share an edge variable. A fiber whose
monomials all use one edge variable is a single component (any two of them
share it), so only fibers with no common variable are linked. The tests check
it against a fiber-by-fiber search (tests/oracles.py) and exact linear
algebra. Results are certified only up to the degree bound, which the profile
records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ehrhart import MAX_Q, BudgetExceededError, _radix_weights, _unpack
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


def _levels(g: Graph, q_max: int):
    """Levels 1..q_max of the edge multisets, one degree at a time: for each
    row its base-16 multidegree code and its edge-support bits, (N, W) words
    of 64 bits with bit k % 64 of word k // 64 set when edge variable k
    divides it.

    A degree-q multiset is a degree-(q-1) one times an edge variable k at or
    after its last variable. Rows are grouped by last variable, so the rows
    that k extends are a prefix of the level below, `prefix[k]` long, and a
    level is a few gathers of the one below. At most two levels are held.
    """
    weights = _radix_weights(g.d, q_max)
    deltas = np.array([weights[i - 1] + weights[j - 1] for i, j in g.edges], dtype=np.int64)
    bits = np.zeros((g.m, -(-g.m // 64)), dtype=np.uint64)
    for k in range(g.m):
        bits[k, k // 64] = 1 << (k % 64)
    codes = np.zeros(1, dtype=np.int64)
    supp = np.zeros((1, bits.shape[1]), dtype=np.uint64)
    prefix = np.ones(g.m, dtype=np.int64)
    for _ in range(q_max):
        starts = np.cumsum(prefix) - prefix
        parent = np.arange(int(prefix.sum())) - np.repeat(starts, prefix)
        codes = codes[parent] + np.repeat(deltas, prefix)
        supp = supp[parent] | np.repeat(bits, prefix, axis=0)
        prefix = np.cumsum(prefix)
        yield codes, supp


def _multisets(m: int, q: int, rows: np.ndarray) -> np.ndarray:
    """The edge variables of the level-q `rows` of `_levels`, as an (N, q)
    array nondecreasing along each row: each step down a row's parent chain
    reads its last variable off the group it falls in."""
    prefixes = [np.ones(m, dtype=np.int64)]
    for _ in range(q - 1):
        prefixes.append(np.cumsum(prefixes[-1]))
    out = np.empty((len(rows), q), dtype=np.int64)
    for t in range(q - 1, -1, -1):
        ends = np.cumsum(prefixes[t])
        out[:, t] = np.searchsorted(ends, rows, side="right")
        rows = rows - (ends - prefixes[t])[out[:, t]]
    return out


def _shared_fibers(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, codes, fiber): the indices of a level's rows sharing their
    multidegree sorted by its base-16 code, those codes, and fiber numbers
    1, 2, ... along `rows`."""
    order = np.argsort(codes)
    codes = codes[order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    shared = ~first
    shared[:-1] |= ~first[1:]
    return order[shared], codes[shared], np.cumsum(first[shared])


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


def _common_variable(supp: np.ndarray, fiber: np.ndarray) -> np.ndarray:
    """Per fiber of `_shared_fibers`, whether one edge variable divides every
    monomial in it: the AND of its rows' support words, one reduceat over
    the fiber starts, is nonzero in some word."""
    starts = np.flatnonzero(np.diff(fiber, prepend=0))
    return np.bitwise_and.reduceat(supp, starts, axis=0).any(axis=1)


def _generator_count(m: int, codes: np.ndarray, supp: np.ndarray) -> int:
    """Minimal generators at the degree of one level of `_levels`: the
    gcd-connectivity components of all shared fibers, minus the number of
    shared fibers.

    A fiber whose monomials all use one edge variable x_k is one component:
    every two of them share x_k, so its gcd graph is complete and it adds no
    generator. Only the other fibers are linked and counted; they may still
    be connected (u - v - w with u, w coprime), so the count stays exact.
    """
    rows, _, fiber = _shared_fibers(codes)
    words = supp[rows]
    linked = ~_common_variable(words, fiber)
    if not linked.any():
        return 0  # no shared rows, or every fiber is one component
    keep = linked[fiber - 1]
    words = np.ascontiguousarray(words[keep].T)
    fiber = fiber[keep]
    index = np.min_scalar_type(len(fiber))
    a, b = [], []
    for k in range(m):
        # the monomials of linked fibers using edge variable k, in fiber
        # order; links between neighbours in the same fiber join all of them
        uses = np.flatnonzero(words[k // 64] & np.uint64(1 << (k % 64))).astype(index)
        within = fiber[uses]
        same = within[1:] == within[:-1]
        a.append(uses[:-1][same])
        b.append(uses[1:][same])
    return _components(np.concatenate(a), np.concatenate(b), len(fiber)) - int(np.count_nonzero(linked))


def fibers(g: Graph, q: int) -> list[Fiber]:
    """Fibers at degree q with at least two monomials, sorted by multidegree."""
    if q < 1:
        raise ValueError("q must be >= 1")
    _guard(g, q, DEFAULT_MONOMIAL_BUDGET)
    for codes, _ in _levels(g, q):
        pass
    rows, codes, fiber = _shared_fibers(codes)
    monomials = [tuple(g.edges[k] for k in ks) for ks in _multisets(g.m, q, rows).tolist()]
    starts = np.flatnonzero(np.diff(fiber, prepend=0))
    bounds = starts.tolist() + [len(rows)]
    out = [Fiber(multidegree, tuple(sorted(monomials[s:e])))
           for multidegree, s, e in zip(map(tuple, _unpack(codes[starts], g.d).tolist()),
                                        bounds, bounds[1:])]
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
    for q in range(2, q_max + 1):
        _radix_weights(g.d, q)  # names the first degree whose codes leave int64
    if g.m == 0:
        return GeneratorProfile((), q_max)  # no edge variables: the ideal is zero
    degrees = []
    for q, (codes, supp) in enumerate(_levels(g, q_max), 1):
        if q > 1:
            degrees += [q] * _generator_count(g.m, codes, supp)
    return GeneratorProfile(tuple(degrees), q_max)
