"""Part-respecting bijection search shared by graphs, digraphs, and nets.

The two vertex parts play different roles, so an isomorphism here is a pair
of bijections, one per part.  Every right-part vertex carries a signature:
a tuple of left-part subsets, one per direction slot (a single slot for
undirected adjacency; pre and post slots for directed objects).  A left
bijection is a witness when it carries the right signatures onto each other
as multisets; the right bijection then falls out by bucket matching.

Candidates are pruned with iterated color refinement run over both objects
at once, then completed by backtracking inside color classes.  The left
part drives the search, so the guard is on its size.
"""

from __future__ import annotations

from collections import Counter

from .errors import SizeGuardError


def _refine(v1, sig1, v2, sig2):
    table = {}

    def intern(x):
        got = table.get(x)
        if got is None:
            got = len(table)
            table[x] = got
        return got

    vcols = [{v: 0 for v in v1}, {v: 0 for v in v2}]
    sigs = (sig1, sig2)
    ucols = [{}, {}]
    prev = -1
    while True:
        for side in (0, 1):
            vc = vcols[side]
            ucols[side] = {
                u: intern(tuple(tuple(sorted(vc[v] for v in part)) for part in sig))
                for u, sig in sigs[side].items()
            }
        newv = []
        for side in (0, 1):
            acc = {v: [] for v in vcols[side]}
            for u, sig in sigs[side].items():
                uc = ucols[side][u]
                for slot, part in enumerate(sig):
                    for v in part:
                        acc[v].append((slot, uc))
            newv.append(
                {v: intern((vcols[side][v], tuple(sorted(acc[v])))) for v in acc}
            )
        vcols = newv
        ncolors = len(set(vcols[0].values()) | set(vcols[1].values()))
        if ncolors == prev:
            break
        prev = ncolors
    return vcols[0], vcols[1], ucols[0], ucols[1]


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


def find_bijections(v1, sig1, v2, sig2, size_guard=12):
    """Witness pair (right map, left map) or None.

    v1/v2 list the left parts; sig1/sig2 map each right-part id to its
    tuple of left-part subsets.  Raises SizeGuardError when the left part
    outgrows the guard, unless part sizes or slot sizes already differ.
    """
    if len(v1) != len(v2) or len(sig1) != len(sig2):
        return None
    shape1 = Counter(tuple(len(part) for part in sig) for sig in sig1.values())
    shape2 = Counter(tuple(len(part) for part in sig) for sig in sig2.values())
    if shape1 != shape2:
        return None
    if len(v1) > size_guard:
        raise SizeGuardError(
            f"left part has {len(v1)} vertices, isomorphism guard is {size_guard}"
        )
    vcol1, vcol2, ucol1, ucol2 = _refine(v1, sig1, v2, sig2)
    if Counter(vcol1.values()) != Counter(vcol2.values()):
        return None
    if Counter(ucol1.values()) != Counter(ucol2.values()):
        return None
    by_color = {}
    for w in v2:
        by_color.setdefault(vcol2[w], []).append(w)
    order = sorted(v1, key=lambda v: len(by_color.get(vcol1[v], ())))
    assign = {}
    used = set()

    def place(i):
        if i == len(order):
            umap = _match_right(sig1, sig2, assign)
            return None if umap is None else (umap, dict(assign))
        v = order[i]
        for w in by_color.get(vcol1[v], ()):
            if w in used:
                continue
            assign[v] = w
            used.add(w)
            got = place(i + 1)
            if got is not None:
                return got
            used.discard(w)
            del assign[v]
        return None

    return place(0)
