"""Factoring a labeled graph, digraph or net through its polynomial.

A factor pair of the encoding decodes to a pair of labeled structures, and
every two-factor decomposition shows up this way: a graph's encoding splits
over N[x] by the full coefficient search, a digraph's or net's over N[x,y]
into bit-disjoint pairs.  The product of the decoded factors encodes back to
the encoding exactly, so it is the input itself up to isomorphism whenever
every v-vertex meets an edge; that single check stands in for any
isomorphism search.  A graph's factorability depends on the labeling: it
can split under one labeling and resist another, so irreducibility verdicts
carry their scope, either the single labeling that was tried or every
compact labeling.  A bit-disjoint split of a digraph or net is a partition
of its v part, so whether one exists does not depend on the labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .bits import tau_poly
from .core import compact_labeling, decode, encode
from .errors import BudgetExceededError, SizeGuardError
from .polyfactor import Budget, _bit_disjoint_factor, _factor_pairs, _Meter


@dataclass(frozen=True)
class IrreducibilityReport:
    verdict: str  # "reducible" | "irreducible" | "inconclusive"
    scope: str  # "labeling" | "compact-labelings"
    witness: tuple | None = None  # (labeling, (factor, cofactor)) if reducible
    detail: str = ""


def factor_graph(g, labeling, budget: Budget = Budget()) -> list:
    """All pairs of labeled graphs, digraphs or nets whose product is
    isomorphic to g.

    A graph splits by factor_pairs, a digraph or net into bit-disjoint pairs
    by bit_disjoint_factor; a net keeps the pairs whose halves both hold an
    idle unit.  Factors come back decoded, carrying their natural labeling.
    v-vertices no edge touches are invisible to the polynomial, so an input
    with one gets no pair rather than a bogus one.  Empty means no
    two-factor split exists under this labeling.
    """
    return _factor_graph(g, labeling, _Meter(budget))


def _factor_graph(g, labeling, meter):
    p = encode(g, labeling)
    if not p or len(tau_poly(p)) != len(g.v_vertices):
        return []
    search = _factor_pairs if g.arity == 1 else _bit_disjoint_factor
    return [
        (decode(q, g.decoded), decode(r, g.decoded))
        for q, r in search(p, meter)
        if not g.idle or (q.constant_coeff() and r.constant_coeff())
    ]


def is_irreducible(
    g,
    labeling=None,
    *,
    exhaustive=False,
    budget: Budget = Budget(),
    size_guard=8,
) -> IrreducibilityReport:
    """Decide two-factor splittability of g.

    Single-labeling mode tries the given labeling (compact by default) and
    scopes its verdict to it.  Exhaustive mode answers for every labeling by
    0..|v|-1.  One compact labeling answers for all of them, except on an
    undirected graph with an isolated u-vertex, where all |v|! labelings are
    swept up to the size guard and "irreducible" says nothing about labels
    past |v|-1.  A split of a digraph or net is a partition of its v part.
    A graph whose every u-vertex has a neighbour has p(0) = 0, so under
    every labeling x splits off iff every v-vertex meets an edge and
    |v| >= 2.  All labelings tried share one allowance; running out of it
    gives "inconclusive".
    """
    scope = "compact-labelings" if exhaustive else "labeling"
    if exhaustive and g.arity == 1 and not all(g.slots(u)[0] for u in g.u_vertices):
        vs = g.v_vertices
        if len(vs) > size_guard:
            raise SizeGuardError(
                f"{len(vs)} v-vertices exceed the exhaustive-sweep guard {size_guard}"
            )
        labelings = (dict(zip(vs, perm)) for perm in permutations(range(len(vs))))
    else:
        labelings = [compact_labeling(g) if exhaustive or labeling is None else labeling]
    meter = _Meter(budget)
    try:
        for lab in labelings:
            pairs = _factor_graph(g, lab, meter)
            if pairs:
                return IrreducibilityReport("reducible", scope, (lab, pairs[0]))
    except BudgetExceededError as e:
        return IrreducibilityReport("inconclusive", scope, detail=str(e))
    return IrreducibilityReport("irreducible", scope)
