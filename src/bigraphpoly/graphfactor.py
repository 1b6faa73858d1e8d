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
from .core import _decode, compact_labeling, encode
from .errors import BudgetExceededError
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
    return list(_factor_graph(g, labeling, _Meter(budget)))


def _factor_graph(g, labeling, meter):
    """The pairs of factor_graph, each decoded when it is read.

    The search runs and charges in full before the first pair comes out.
    Its halves share one table from exponent to slot supports, so each
    distinct term is decoded once per call; a net keeps its idle unit, so
    most terms of its halves are terms of p.
    """
    p = encode(g, labeling)
    if not p or len(tau_poly(p)) != len(g.v_vertices):
        return
    search = _factor_pairs if g.arity == 1 else _bit_disjoint_factor
    supports = {}
    for q, r in search(p, meter):
        if not g.idle or (q.constant_coeff() and r.constant_coeff()):
            yield _decode(q, g.decoded, supports), _decode(r, g.decoded, supports)


def is_irreducible(
    g,
    labeling=None,
    *,
    exhaustive=False,
    budget: Budget = Budget(),
) -> IrreducibilityReport:
    """Decide two-factor splittability of g.

    Single-labeling mode tries the given labeling (compact by default) and
    scopes its verdict to it.  Exhaustive mode answers for every labeling by
    0..|v|-1.  One compact labeling answers for all of them, except on an
    undirected graph with an isolated u-vertex and every v-vertex on an
    edge, where all |v|! labelings are swept and "irreducible" says nothing
    about labels past |v|-1; no labeling splits a graph with a v-vertex no
    edge meets.  A split of a digraph or net is a partition of its v part.
    A graph whose every u-vertex has a neighbour has p(0) = 0, so under
    every labeling x splits off iff every v-vertex meets an edge and
    |v| >= 2.  All labelings tried share one allowance, and past one each
    costs at least the divisor scan of p(1); running out gives "inconclusive".
    """
    scope = "compact-labelings" if exhaustive else "labeling"
    labelings = [compact_labeling(g) if exhaustive or labeling is None else labeling]
    if exhaustive and g.arity == 1:
        vs, nbrs = g.v_vertices, [g.slots(u)[0] for u in g.u_vertices]
        if not all(nbrs) and len(set().union(*nbrs)) == len(vs):
            labelings = (dict(zip(vs, perm)) for perm in permutations(range(len(vs))))
    meter = _Meter(budget)
    try:
        for lab in labelings:
            pair = next(_factor_graph(g, lab, meter), None)
            if pair is not None:
                return IrreducibilityReport("reducible", scope, (lab, pair))
    except BudgetExceededError as e:
        return IrreducibilityReport("inconclusive", scope, detail=str(e))
    return IrreducibilityReport("irreducible", scope)
