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
from .polyfactor import Budget, bit_disjoint_factor, factor_pairs


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
    p = encode(g, labeling)
    if not p or len(tau_poly(p)) != len(g.v_vertices):
        return []
    search = factor_pairs if g.arity == 1 else bit_disjoint_factor
    return [
        (decode(q, g.decoded), decode(r, g.decoded))
        for q, r in search(p, budget)
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
    0..|v|-1: for a graph it sweeps them all, so "irreducible" says nothing
    about labelings using larger naturals; for a digraph or net one compact
    labeling answers for every injective labeling, with no sweep and no size
    guard.  Budget exhaustion downgrades the verdict to "inconclusive"
    instead of raising.
    """
    scope = "labeling"
    if exhaustive and g.arity == 2:
        labeling, scope = compact_labeling(g), "compact-labelings"
    elif exhaustive:
        vs = g.v_vertices
        if len(vs) > size_guard:
            raise SizeGuardError(
                f"{len(vs)} v-vertices exceed the exhaustive-sweep guard {size_guard}"
            )
        starved = False
        for perm in permutations(range(len(vs))):
            lab = dict(zip(vs, perm))
            try:
                pairs = factor_graph(g, lab, budget)
            except BudgetExceededError:
                starved = True
                continue
            if pairs:
                return IrreducibilityReport(
                    "reducible", "compact-labelings", (lab, pairs[0])
                )
        if starved:
            return IrreducibilityReport(
                "inconclusive",
                "compact-labelings",
                detail="budget ran out on at least one labeling",
            )
        return IrreducibilityReport("irreducible", "compact-labelings")
    if labeling is None:
        labeling = compact_labeling(g)
    try:
        pairs = factor_graph(g, labeling, budget)
    except BudgetExceededError as e:
        return IrreducibilityReport("inconclusive", scope, detail=str(e))
    if pairs:
        return IrreducibilityReport("reducible", scope, (labeling, pairs[0]))
    return IrreducibilityReport("irreducible", scope)
