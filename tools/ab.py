"""Time two source trees of bigraphpoly on one benchmark workload, in one
process, op by op.

    python3 tools/ab.py OLD_SRC NEW_SRC --workload W --seed S [--blocks N] [--reps R]

OLD_SRC and NEW_SRC are src directories, each holding a bigraphpoly
package.  The two packages are loaded
side by side as bigraphpoly_a and bigraphpoly_b, which works because the
package imports itself only relatively.  The ops are the first N blocks
that perfbench/gen.py builds for the workload and seed (by default as many
as the benchmark builds); the files the command-line ops read are written
to a temporary directory.  Each tree gets its own input objects, built
untimed, op by op for both trees, the tree built first flipping from op
to op: objects built later were timed faster, and building one tree's
inputs before the other's read the same tree against itself at 0.92-0.97
on the encode ops of algebra.

A first, untimed pass runs every op once on each tree and records its
answer and the steps it asked of the tree's budget meter: the sum of the
steps passed to polyfactor._Meter.charge during the op.  Each timed pass
then runs every op once on each tree, timing the call alone with
perf_counter, and the tree that goes first flips on every op and between
passes, so drift of the machine's speed falls on both trees alike.  Per
category it prints the op count, the sum over ops of each op's median time
on each tree, their ratio NEW/OLD, the lowest and the highest NEW/OLD
ratio of the two trees' sums over one pass (the pass range: how far the
ratio moves from pass to pass), and a digest of each tree's answers and
steps: equal digests mean the two trees gave the same answers, sets and
dicts compared as sets, after charging the same steps.  Timings are for
reading; nothing is asserted on them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import statistics
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(src, name):
    """The bigraphpoly package in src imported as name."""
    root = Path(src) / "bigraphpoly"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for sub in ("cli", "core", "fileio"):
        importlib.import_module(f"{name}.{sub}")
    return package


def prepare(bp, spec, work):
    """The function an op calls in package bp and its arguments."""
    def doc(d):
        parsed = bp.fileio.parse_document(d)
        return parsed.obj, parsed.labels

    op = spec["op"]
    if op == "cli":
        argv = [a.replace("{work}", work) for a in spec["argv"]]
        return _cli(bp), (argv,)
    if op in ("factor_pairs", "decode"):
        args = (bp.parse_poly1(spec["poly"]),)
    elif op == "decode_directed":
        args = (bp.parse_poly2(spec["poly"]),)
    elif op in ("factor_graph", "decompose", "encode", "encode_directed"):
        args = doc(spec["net" if op == "decompose" else "graph"])
    elif op in ("poly_product", "direct_product", "poly_sum", "direct_sum"):
        args = doc(spec["g1"]) + doc(spec["g2"])
    elif op == "is_isomorphic":
        args = doc(spec["g1"])[0], doc(spec["g2"])[0]
    elif op == "canonical_poly":
        args = (doc(spec["graph"])[0],)
    else:
        raise ValueError(f"unknown op {op!r}")
    return getattr(bp, op), args


def _cli(bp):
    def main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bp.cli.main(argv)
        return code, out.getvalue()

    return main


def plain(x, bp):
    """x as plain data that reads the same from either tree: the package's
    polynomials as their terms, its structures as their v part and slots
    per u-vertex, sets and dicts sorted."""
    if isinstance(x, (bp.Poly1, bp.Poly2)):
        x = x.terms
    elif isinstance(x, bp.core.Bipartite):
        x = (type(x).__name__, x.v_vertices, {u: x.slots(u) for u in x.u_vertices})
    if isinstance(x, dict):
        return sorted(((plain(k, bp), plain(v, bp)) for k, v in x.items()), key=repr)
    if isinstance(x, (set, frozenset)):
        return sorted((plain(y, bp) for y in x), key=repr)
    if isinstance(x, (list, tuple)):
        return [plain(y, bp) for y in x]
    return x


def answer(function, args):
    """(seconds, answer) of one call; a raised error is its answer."""
    start = perf_counter()
    try:
        out = function(*args)
    except Exception as e:  # the error is compared, not hidden
        return perf_counter() - start, ("raised", type(e).__name__, str(e))
    return perf_counter() - start, out


def charged(bp, ops):
    """The repr of each op's answer on package bp with the steps it asked
    of bp's budget meter, read in one untimed pass."""
    meter = bp.polyfactor._Meter
    real = meter.charge
    asked = 0

    def charge(self, steps, phase):
        nonlocal asked
        asked += steps
        return real(self, steps, phase)

    meter.charge = charge
    try:
        out = []
        for op in ops:
            asked = 0
            got = answer(*op)[1]
            out.append(f"{plain(got, bp)!r} steps {asked}")
        return out
    finally:
        meter.charge = real


def compare(trees, specs, reps):
    """Per op: its category, the seconds of each pass on each tree and
    each tree's answer with its steps.  trees are (package, ops) pairs, ops
    the (function, args) of each spec."""
    answers = [charged(bp, ops) for bp, ops in trees]
    times = [[[] for _ in specs] for _ in trees]
    for rep in range(reps):
        for k in range(len(specs)):
            order = (0, 1) if (k + rep) % 2 == 0 else (1, 0)
            for side in order:
                times[side][k].append(answer(*trees[side][1][k])[0])
    return [(spec["cat"], [t[k] for t in times], [a[k] for a in answers])
            for k, spec in enumerate(specs)]


def report(rows):
    """One line per category and one for all ops: the sums over its ops of
    each op's median seconds on each tree, their ratio NEW/OLD, the lowest
    and the highest ratio of the two trees' sums over one pass, and the
    digests."""
    groups = defaultdict(list)
    for row in rows:
        groups[row[0]].append(row)
    groups = {cat: groups[cat] for cat in sorted(groups)}
    groups["all"] = rows
    print(f"{'category':<16}{'ops':>5}{'old ms':>11}{'new ms':>11}{'ratio':>8}"
          f"{'pass range':>14}  digests")
    for cat, group in groups.items():
        old, new = (sum(statistics.median(t[side]) for _, t, _ in group) for side in (0, 1))
        passes = [[sum(t[side][rep] for _, t, _ in group) for side in (0, 1)]
                  for rep in range(len(group[0][1][0]))]
        ratios = [b / max(a, 1e-12) for a, b in passes]
        digests = [hashlib.sha256("\n".join(a[side] for _, _, a in group).encode()).hexdigest()[:12]
                   for side in (0, 1)]
        same = "equal" if digests[0] == digests[1] else "differ"
        print(f"{cat:<16}{len(group):>5}{old * 1e3:>11.2f}{new * 1e3:>11.2f}"
              f"{new / max(old, 1e-12):>8.3f}{min(ratios):>8.3f}-{max(ratios):.3f}"
              f"  {digests[0]} {digests[1]} {same}")


def main(argv=None):
    sys.path.insert(0, str(_PERFBENCH))
    import gen
    from run import NBLOCKS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, help="default: as many as the benchmark builds")
    parser.add_argument("--reps", type=int, default=6, help="passes over the ops (default 6)")
    args = parser.parse_args(argv)
    generated = gen.generate(args.workload, args.seed, args.blocks or NBLOCKS[args.workload])
    specs = [spec for block in generated["blocks"] for spec in block]
    packages = [load(src, f"bigraphpoly_{tag}") for src, tag in
                ((args.old_src, "a"), (args.new_src, "b"))]
    with tempfile.TemporaryDirectory() as work:
        for name, doc in generated["files"].items():
            Path(work, name).write_text(json.dumps(doc))
        ops = [[], []]
        for k, spec in enumerate(specs):
            for side in (0, 1) if k % 2 == 0 else (1, 0):
                ops[side].append(prepare(packages[side], spec, work))
        trees = list(zip(packages, ops))
        print(f"# {args.workload}: seed {args.seed}, {len(specs)} ops, {args.reps} passes; "
              f"old {args.old_src}, new {args.new_src}")
        report(compare(trees, specs, args.reps))


if __name__ == "__main__":
    main()
