"""Part-respecting bijection search shared by graphs, digraphs, and nets.

The two vertex parts play different roles, so an isomorphism here is a pair
of bijections, one per part.  Every right-part vertex carries a signature:
a tuple of left-part subsets, one per direction slot (a single slot for
undirected adjacency; pre and post slots for directed objects).  A left
bijection is a witness when it carries the right signatures onto each other
as multisets; the right bijection then falls out by bucket matching.

Candidates are pruned with iterated color refinement run over both objects
at once, then completed by backtracking inside color classes, charging
the caller's step meter as it goes.
"""

from __future__ import annotations

from collections import Counter


def _refine(v1, sig1, v2, sig2, meter):
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
        meter.charge(1, "color refinement")
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


def find_bijections(v1, sig1, v2, sig2, meter):
    """Witness pair (right map, left map) or None.

    v1/v2 list the left parts; sig1/sig2 map each right-part id to its
    tuple of left-part subsets.  meter is charged a step per refinement
    round and backtracking node, and len(sig1) per complete assignment.
    """
    if len(v1) != len(v2) or len(sig1) != len(sig2):
        return None
    shape1 = Counter(tuple(len(part) for part in sig) for sig in sig1.values())
    shape2 = Counter(tuple(len(part) for part in sig) for sig in sig2.values())
    if shape1 != shape2:
        return None
    meter.search = f"the isomorphism search on {len(v1)} v-vertices"
    vcol1, vcol2, ucol1, ucol2 = _refine(v1, sig1, v2, sig2, meter)
    if Counter(vcol1.values()) != Counter(vcol2.values()):
        return None
    if Counter(ucol1.values()) != Counter(ucol2.values()):
        return None
    by_color = {}
    for w in v2:
        by_color.setdefault(vcol2[w], []).append(w)
    order = sorted(v1, key=lambda v: len(by_color.get(vcol1[v], ())))
    candidates = [by_color.get(vcol1[v], ()) for v in order]
    used = set()
    charge = meter.charge
    # Depth-first on explicit stacks, so |v1| is not limited by the
    # recursion limit: chosen[k] is the image of order[k], and stack[k]
    # yields the candidates for it not tried yet.
    chosen = []
    stack = []
    while True:
        charge(1, "the backtracking")
        if len(chosen) < len(order):
            stack.append(iter(candidates[len(chosen)]))
        else:
            charge(len(sig1), "checking a witness")
            assign = dict(zip(order, chosen))
            umap = _match_right(sig1, sig2, assign)
            if umap is not None:
                return umap, assign
        while stack:
            if len(chosen) == len(stack):
                used.discard(chosen.pop())
            for w in stack[-1]:
                if w not in used:
                    chosen.append(w)
                    used.add(w)
                    break
            else:
                stack.pop()
                continue
            break
        else:
            return None
