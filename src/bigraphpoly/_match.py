"""Part-respecting bijection search shared by graphs, digraphs, and nets.

The two vertex parts play different roles, so an isomorphism here is a pair
of bijections, one per part.  The search reads each side's class table: each
distinct signature of a right-part vertex, a tuple of left-part subsets, one
per direction slot (a single slot for undirected adjacency; pre and post
slots for directed objects), mapped to the number of right-part vertices
that carry it.  A left bijection is a witness when it carries each class
onto a class of the other side with the same count; pair_ids then pairs the
right-part vertices class by class.  So the search's cost follows the
distinct signatures, not the right-part vertices.

The search individualizes and refines (McKay & Piperno, "Practical graph
isomorphism, II", J. Symbolic Comput. 2014), charging the caller's meter.
Refinement stops once the v-colorings of both sides are discrete, as they
then leave one candidate pairing, or once the colors stop splitting.
"""

from __future__ import annotations

from collections import Counter


def _refine(c1, c2, vcol1, vcol2, cost, meter):
    """The v-colorings of both sides refined from vcol1 and vcol2, then the
    list of each side's class colors in class order.

    A round recolors each class by its count and the sorted v-colors of
    each of its slots, then each v-vertex by its color and the sorted
    memberships of the classes it lies in, a membership being the class
    color cc in slot 0 and -1 - cc in slot 1, once per class.  A class's
    color fixes its count, so this is as fine as coloring each u-vertex
    alone: the per-u memberships are read back from the per-class ones.
    Colors come from one table shared by the sides, so they compare across
    them; within a round the class colors of side 1, then of side 2, then
    the v-colors of side 1, then of side 2 take the next free ids.  Rounds
    repeat until both v-colorings are discrete, which leaves one candidate
    pairing, or the number of v-colors of the two sides together stops
    growing; each charges cost steps.
    """
    table = {}
    vcols = (vcol1, vcol2)
    prev = -1
    while True:
        meter.charge(cost, "color refinement")
        ccols, accs = ([], []), []
        for classes, vcol, ccol in zip((c1, c2), vcols, ccols):
            acc = {v: [] for v in vcol}
            color = vcol.__getitem__
            for slots, count in classes.items():
                key = (count, tuple([tuple(sorted(map(color, part))) for part in slots]))
                cc = table.setdefault(key, len(table))
                ccol.append(cc)
                for member, part in zip((cc, -1 - cc), slots):
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
            return (*vcols, *ccols)
        prev = ncolors


def _class_map(c1, c2, vmap):
    """Each class of c1 -> its image under vmap, or None when some image is
    not a class of c2 with the same count."""
    cmap = {s: tuple([frozenset(map(vmap.__getitem__, part)) for part in s]) for s in c1}
    return cmap if [*map(c2.get, cmap.values())] == [*c1.values()] else None


def pair_ids(sig1, sig2, cmap):
    """u map from the per-u view sig1 onto sig2: each u-vertex goes to one
    of the other side whose slots are cmap of its own, class by class."""
    buckets = {}
    for u, slots in sig2.items():
        buckets.setdefault(slots, []).append(u)
    return {u: buckets[cmap[slots]].pop() for u, slots in sig1.items()}


def _children(vcol1, vcol2, v, cell):
    """Give v and each w of cell in turn one fresh color: refined colors
    are never negative."""
    for w in cell:
        yield {**vcol1, v: -1}, {**vcol2, w: -1}


def find_bijections(v1, c1, v2, c2, meter):
    """Witness pair (class map, left map) or None.

    v1/v2 list the left parts; c1/c2 map each class, a tuple of left-part
    subsets, to its count.  The search walks one stack of coloring pairs,
    all-zero at the root.  Each node refines its pair and is dropped if
    the color counts of the v-vertices or of the classes differ between
    the sides (at the root, the first round colors each class by its
    count and slot sizes).  Then the members of each v-color are paired in
    declared order and checked as a witness by _class_map; failing that,
    the first v of a color of two or more gets one fresh color with each w
    of its color on side 2, one child each.

    Complete: refinement is joint, so an isomorphism that respects a node's
    starting colorings respects the refined ones, and it maps the branching
    v to some w of its color, so it respects the child for (v, w).  Each
    child has one more singleton color, so a branch ends at discrete
    colorings, whose pairing is the only assignment left.  A step is a
    node, or one v-vertex, class or slot member read by a refinement round
    on either side; a witness check costs one step per class of c1.
    """
    meter.search = f"the isomorphism search on {len(v1)} v-vertices"
    charge = meter.charge
    # What one round reads: every v-vertex, class and slot member.
    cost = len(v1) + len(v2) + sum(1 + sum(map(len, slots))
                                   for classes in (c1, c2) for slots in classes)
    stack = [iter([(dict.fromkeys(v1, 0), dict.fromkeys(v2, 0))])]
    while stack:
        start = next(stack[-1], None)
        if start is None:
            stack.pop()
            continue
        charge(1, "the search tree")
        vcol1, vcol2, cc1, cc2 = _refine(c1, c2, *start, cost, meter)
        if Counter(vcol1.values()) != Counter(vcol2.values()) or Counter(cc1) != Counter(cc2):
            continue
        cells = {}
        for w in v2:
            cells.setdefault(vcol2[w], []).append(w)
        firsts = {color: iter(cell) for color, cell in cells.items()}
        vmap = {v: next(firsts[vcol1[v]]) for v in v1}
        charge(len(c1), "checking a witness")
        cmap = _class_map(c1, c2, vmap)
        if cmap is not None:
            return cmap, vmap
        for v in v1:
            cell = cells[vcol1[v]]
            if len(cell) > 1:
                stack.append(_children(vcol1, vcol2, v, cell))
                break
    return None
