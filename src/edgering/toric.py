"""Degree-bounded analysis of the defining ideal of an edge ring.

The defining ideal is spanned in each degree by differences of monomials
sharing a multidegree (a fiber). A relation u - v lies in the subideal
generated below degree q exactly when u and v are linked by moves that cancel
a common variable, so the number of minimal generators contributed by a
fiber is its number of gcd-connectivity components minus one. That count is
validated against an exhaustive linear-algebra oracle in the test suite.

Everything here is certified only up to the requested degree bound, and the
profile records that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ehrhart import MAX_Q, BudgetExceededError, _compositions, _pack
from .graphs import Graph

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


def _guard(g: Graph, q: int, budget: int) -> int:
    count = math.comb(g.m + q - 1, q)
    if count > budget:
        raise BudgetExceededError(
            f"degree {q} needs {count} edge multisets, over the budget {budget}"
        )
    if q > MAX_Q:
        raise BudgetExceededError(f"degree {q} exceeds the supported bound {MAX_Q}")
    return count


def _exponent_groups(g: Graph, q: int, budget: int):
    """Exponent vectors of degree q grouped by multidegree.

    Yields (multidegree_row, exponent_block) for every multidegree shared by
    at least two exponent vectors.
    """
    _guard(g, q, budget)
    expo = np.asarray(_compositions(q, g.m, q))
    incidence = np.zeros((g.m, g.d), dtype=np.int64)
    for k, (i, j) in enumerate(g.edges):
        incidence[k, i - 1] = 1
        incidence[k, j - 1] = 1
    degs = expo.astype(np.int64) @ incidence
    codes = _pack(degs)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    expo = expo[order]
    degs = degs[order]
    boundaries = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [len(codes)]])
    shared = ends - starts >= 2
    for s, e in zip(starts[shared].tolist(), ends[shared].tolist()):
        yield degs[s], expo[s:e]


def _fiber_components(expo_block: np.ndarray) -> int:
    """Components of the graph joining monomials that share an edge variable."""
    support = expo_block > 0
    adj = (support.astype(np.int16) @ support.astype(np.int16).T) > 0
    n = len(expo_block)
    seen = [False] * n
    comps = 0
    for start in range(n):
        if seen[start]:
            continue
        comps += 1
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(adj[v]):
                if not seen[u]:
                    seen[u] = True
                    stack.append(int(u))
    return comps


def _expo_to_monomial(g: Graph, expo_row) -> tuple[tuple[int, int], ...]:
    mono: list[tuple[int, int]] = []
    for k, count in enumerate(expo_row.tolist()):
        mono.extend([g.edges[k]] * count)
    return tuple(mono)


def fibers(g: Graph, q: int, budget: int = DEFAULT_MONOMIAL_BUDGET) -> list[Fiber]:
    """Fibers at degree q with at least two monomials, sorted by multidegree."""
    if q < 1:
        raise ValueError("q must be >= 1")
    out = []
    for deg_row, block in _exponent_groups(g, q, budget):
        monos = tuple(sorted(_expo_to_monomial(g, row) for row in block))
        out.append(Fiber(tuple(int(x) for x in deg_row), monos))
    out.sort(key=lambda f: f.multidegree)
    return out


def minimal_generator_degrees(
    g: Graph, q_max: int, budget: int = DEFAULT_MONOMIAL_BUDGET
) -> GeneratorProfile:
    """Count minimal generators of the defining ideal per degree, up to q_max.

    Each fiber contributes (components of its gcd graph - 1) generators at its
    degree; degrees are returned as a sorted multiset.
    """
    if q_max < 2:
        raise ValueError("q_max must be >= 2")
    degrees: list[int] = []
    for q in range(2, q_max + 1):
        for _deg_row, block in _exponent_groups(g, q, budget):
            comps = _fiber_components(block)
            degrees.extend([q] * (comps - 1))
    return GeneratorProfile(tuple(sorted(degrees)), q_max)


def principal_regularity(
    g: Graph, q_max: int, budget: int = DEFAULT_MONOMIAL_BUDGET
) -> int | None:
    """Regularity certificate when the ideal is principal up to the bound.

    A single generator of degree D up to q_max gives regularity D - 1 (a
    hypersurface ring); the result is only certified up to q_max. Returns
    None when zero or several generators were found.
    """
    return minimal_generator_degrees(g, q_max, budget).principal_reg
