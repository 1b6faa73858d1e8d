"""Part-respecting bijection search shared by graphs, digraphs, and nets.

The two vertex parts play different roles, so an isomorphism here is a pair
of bijections, one per part.  Every right-part vertex carries a signature:
a tuple of left-part subsets, one per direction slot (a single slot for
undirected adjacency; pre and post slots for directed objects).  A left
bijection is a witness when it carries the right signatures onto each other
as multisets; the right bijection then falls out by bucket matching.

The search individualizes and refines (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 2014), charging the caller's meter.
Refinement stops once the v-colorings of both sides are discrete, as they
then leave one candidate pairing, or once the colors stop splitting.
"""

from __future__ import annotations

from collections import Counter


def _refine(sig1, sig2, vcol1, vcol2, cost, meter):
    """The v- and u-colorings of both sides refined from vcol1 and vcol2.

    A round recolors each u-vertex by the sorted v-colors of each of its
    slots, then each v-vertex by its color and the sorted memberships of
    the slots it lies in, a membership being the u-color uc in slot 0 and
    -1 - uc in slot 1.  Colors come from one table shared by the sides, so
    they compare across them; within a round the u-colors of side 1, then
    of side 2, then the v-colors of side 1, then of side 2 take the next
    free ids.  Rounds repeat until both v-colorings are discrete, which
    leaves one candidate pairing, or the number of v-colors of the two
    sides together stops growing; each charges cost steps.
    """
    table = {}
    vcols = (vcol1, vcol2)
    prev = -1
    while True:
        meter.charge(cost, "color refinement")
        ucols, accs = ({}, {}), []
        for sig, vcol, ucol in zip((sig1, sig2), vcols, ucols):
            acc = {v: [] for v in vcol}
            color = vcol.__getitem__
            for u, slots in sig.items():
                key = tuple([tuple(sorted(map(color, part))) for part in slots])
                ucol[u] = uc = table.setdefault(key, len(table))
                for member, part in zip((uc, -1 - uc), slots):
                    for v in part:
                        acc[v].append(member)
            accs.append(acc)
        vcols = [
            {v: table.setdefault((vcol[v], tuple(sorted(a))), len(table)) for v, a in acc.items()}
            for vcol, acc in zip(vcols, accs)
        ]
        seen = [set(vcol.values()) for vcol in vcols]
        ncolors = len(seen[0] | seen[1])
        if ncolors == prev or all(len(s) == len(c) for s, c in zip(seen, vcols)):
            return (*vcols, *ucols)
        prev = ncolors


def _match_right(sig1, sig2, vmap):
    buckets = {}
    for u, sig in sig2.items():
        buckets.setdefault(sig, []).append(u)
    out = {}
    for u, sig in sig1.items():
        key = tuple(frozenset(vmap[v] for v in part) for part in sig)
        avail = buckets.get(key)
        if not avail:
            return None
        out[u] = avail.pop()
    return out


def _children(vcol1, vcol2, v, cell):
    """Give v and each w of cell in turn one fresh color: refined colors
    are never negative."""
    for w in cell:
        yield {**vcol1, v: -1}, {**vcol2, w: -1}


def find_bijections(v1, sig1, v2, sig2, meter):
    """Witness pair (right map, left map) or None.

    v1/v2 list the left parts; sig1/sig2 map each right-part id to its
    tuple of left-part subsets.  The search walks one stack of coloring
    pairs, all-zero at the root.  Each node refines its pair and is dropped
    if the class counts of either part differ between the sides (at the
    root, the first round colors each u-vertex by its slot sizes).  Then
    the members of each class are paired in declared order and checked as
    a witness; failing that, the first v of a class of two or more gets one
    fresh color with each w of its class on side 2, one child each.

    Complete: refinement is joint, so an isomorphism that respects a node's
    starting colorings respects the refined ones, and it maps the branching
    v to some w of its class, so it respects the child for (v, w).  Each
    child has one more singleton class, so a branch ends at discrete
    colorings, whose pairing is the only assignment left.  A step is a
    node, or one vertex or slot member read by a refinement round on either
    side; a witness check costs len(sig1).
    """
    meter.search = f"the isomorphism search on {len(v1)} v-vertices"
    charge = meter.charge
    # What one round reads: every v-vertex, u-vertex and slot member.
    cost = len(v1) + len(v2) + sum(
        1 + sum(map(len, slots)) for sig in (sig1, sig2) for slots in sig.values()
    )
    stack = [iter([(dict.fromkeys(v1, 0), dict.fromkeys(v2, 0))])]
    while stack:
        start = next(stack[-1], None)
        if start is None:
            stack.pop()
            continue
        charge(1, "the search tree")
        cols = _refine(sig1, sig2, *start, cost, meter)
        counts = [Counter(col.values()) for col in cols]
        if counts[0] != counts[1] or counts[2] != counts[3]:
            continue
        vcol1, vcol2 = cols[:2]
        cells = {}
        for w in v2:
            cells.setdefault(vcol2[w], []).append(w)
        firsts = {color: iter(cell) for color, cell in cells.items()}
        vmap = {v: next(firsts[vcol1[v]]) for v in v1}
        charge(len(sig1), "checking a witness")
        umap = _match_right(sig1, sig2, vmap)
        if umap is not None:
            return umap, vmap
        for v in v1:
            cell = cells[vcol1[v]]
            if len(cell) > 1:
                stack.append(_children(vcol1, vcol2, v, cell))
                break
    return None
