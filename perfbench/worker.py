"""One workload process: load the inputs, then run ops in a closed loop.

    python3 worker.py INPUTS --mode load
    python3 worker.py INPUTS --mode run --seconds S --out RESULT
    python3 worker.py INPUTS --mode trace --out RESULT

``load`` imports bigraphpoly, builds every input through the package's
constructors and ``fileio``, and prints the clock reading, which the
parent times from before the interpreter started, and the mean time of ten
runs of the reference loop.  ``run`` runs whole blocks for about S seconds
and reports each op's latency, the wall time, and the mean time of the
reference loop sampled between the ops.  ``trace`` runs block 0 untraced,
traced, traced and untraced, and reports per-layer figures and the tracing
overhead.  One thread, one client: each call is sent only after the
previous one returned.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

import bigraphpoly as bp
from bigraphpoly import cli, fileio
from bigraphpoly.errors import BudgetExceededError, SizeGuardError

import oracle as o
from spans import Tracer

MIN_OPS = 100  # per run, so that at least ten latencies lie above its p90
REF_EVERY = 0.02  # seconds between samples of the reference loop
GRAPH_ARGS = {"factor_graph", "decompose", "encode", "encode_directed"}
PAIR_ARGS = {"poly_product", "direct_product", "poly_sum", "direct_sum"}


def _doc(doc):
    d = fileio.parse_document(doc)
    return d.obj, d.labels


def prepare(spec, work):
    """Package objects an op is called with."""
    op = spec["op"]
    if op == "factor_pairs":
        return (bp.parse_poly1(spec["poly"]),)
    if op in GRAPH_ARGS:
        return _doc(spec["net" if op == "decompose" else "graph"])
    if op == "decode":
        return (bp.parse_poly1(spec["poly"]),)
    if op == "decode_directed":
        return (bp.parse_poly2(spec["poly"]),)
    if op in PAIR_ARGS:
        return _doc(spec["g1"]) + _doc(spec["g2"])
    if op == "is_isomorphic":
        return _doc(spec["g1"])[0], _doc(spec["g2"])[0]
    if op == "canonical_poly":
        return (_doc(spec["graph"])[0],)
    if op == "cli":
        return ([a.replace("{work}", work) for a in spec["argv"]],)
    raise ValueError(f"unknown op {op!r}")


def load(path):
    with open(path) as f:
        inputs = json.load(f)
    work = os.path.dirname(os.path.abspath(path))
    return [[(spec, prepare(spec, work)) for spec in block] for block in inputs]


def attach_expected(blocks, path):
    """Merge the oracle's answers into the op specs, after set-up."""
    with open(path) as f:
        expect = json.load(f)
    for block, answers in zip(blocks, expect):
        for (spec, _), extra in zip(block, answers):
            spec.update(extra)


def call(spec, args):
    if spec["op"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(*args)
        return code, out.getvalue()
    return getattr(bp, spec["op"])(*args)


def judge(spec, result, canon):
    """Outcome of a call that returned: ok, undecided, error or wrong."""
    op = spec["op"]
    if op == "cli":
        code, out = result
        if code == 2:
            return "undecided", None
        if code == 3:
            return "error", None
        why = o.check_cli(spec, code, out, canon)
    elif op == "factor_pairs":
        pairs = [(dict(q.terms), dict(r.terms)) for q, r in result]
        why = o.check_pairs(pairs, o.parse(spec["poly"]), spec)
    elif op == "factor_graph":
        pairs = [(o.graph_terms(q), o.graph_terms(r)) for q, r in result]
        why = o.check_pairs(pairs, o.enc_graph(spec["graph"], spec["graph"]["labels"]), spec)
    elif op == "decompose":
        pairs = [(o.net_terms(a), o.net_terms(b)) for a, b in result]
        why = o.check_splits(pairs, o.enc_net(spec["net"], spec["net"]["labels"]), spec)
    elif op in ("encode", "encode_directed"):
        why = None if dict(result.terms) == o.from_list(spec["expect"]) else "wrong encoding"
    elif op in ("decode", "decode_directed"):
        got = (o.graph_terms if op == "decode" else o.digraph_terms)(result)
        why = None if got == o.from_list(spec["expect"]) else "decoding does not re-encode"
    elif op in PAIR_ARGS:
        why = None if o.graph_terms(result) == o.from_list(spec["expect"]) else (
            f"{op} disagrees with the dict {op.split('_')[1]}")
    elif op == "is_isomorphic":
        if spec["iso"]:
            why = "no witness for isomorphic graphs" if result is None else (
                o.check_witness(result, spec["g1"], spec["g2"]))
        else:
            why = None if result is None else "witness for non-isomorphic graphs"
    elif op == "canonical_poly":
        got = dict(result.terms)
        if canon.setdefault(spec["pair"], got) != got:
            why = "canonical forms of relabeled copies differ"
        else:
            why = o.check_canonical(got, spec["graph"], spec["expect"])
    else:
        raise ValueError(f"unknown op {op!r}")
    return ("ok", None) if why is None else ("wrong", why)


def reference():
    """Seconds taken by fixed interpreted work, run between ops to gauge
    the machine's current speed.  It allocates no object the garbage
    collector tracks besides one dict, so it cannot trigger a collection
    of the program's objects."""
    t0 = perf_counter()
    d = {}
    for i in range(10000):
        k = i % 97
        d[k] = d.get(k, 0) + i * i
    return perf_counter() - t0


class Speed:
    """Samples of the reference loop, one after every REF_EVERY s of ops."""

    def __init__(self):
        self.samples = []
        self.due = 0.0

    def sample(self):
        """Take a sample if one is due; returns the time it took."""
        if perf_counter() < self.due:
            return 0.0
        self.samples.append(reference())
        self.due = perf_counter() + REF_EVERY
        return self.samples[-1]


def run_block(block, records, wrong, speed):
    """One block of ops in a closed loop; returns its wall time.

    Each record holds an op's category, outcome, latency, and the number of
    reference samples taken before it started.  The clock covers the calls
    only: reference samples between the calls are taken out, and the oracle
    judges the block's answers after the clock stops."""
    done = []
    start = perf_counter()
    aside = 0.0
    for spec, args in block:
        result = None
        k = len(speed.samples)
        t0 = perf_counter()
        try:
            result = call(spec, args)
            outcome = None
        except (BudgetExceededError, SizeGuardError):
            outcome = "undecided"
        except Exception:  # any other failure of the program is an outcome
            outcome = "error"
        done.append((spec, outcome, result, perf_counter() - t0, k))
        aside += speed.sample()
    wall = perf_counter() - start - aside
    canon = {}
    for spec, outcome, result, dt, k in done:
        if outcome is None:
            try:
                outcome, why = judge(spec, result, canon)
            except (ValueError, KeyError, TypeError) as e:
                outcome, why = "wrong", f"malformed answer: {e!r}"
            if why:
                wrong.append(f"{spec['cat']}/{spec['op']}: {why}")
        records.append((spec["cat"], outcome, dt, k))
    return wall


def run_blocks(blocks, records, wrong, seconds, speed):
    """Whole blocks in order until `seconds` of wall time, at least enough
    for MIN_OPS ops and never more than were generated, so no input
    repeats.  Returns (blocks run, wall time)."""
    least = -(-MIN_OPS // len(blocks[0]))
    wall, count = 0.0, 0
    while count < len(blocks) and (count < least or wall < seconds):
        wall += run_block(blocks[count], records, wrong, speed)
        count += 1
    return count, wall


def kernel_probes():
    """The dense kernel rows of the former bench_kernel script, in ms:
    median of five runs at size 400."""
    try:
        from bigraphpoly import kernel
    except ImportError:
        return None, {}
    rng = random.Random(2026)
    size = 400
    a = [rng.randrange(100) for _ in range(size)]
    b = [rng.randrange(100) for _ in range(size - 1)] + [rng.randrange(1, 100)]
    short = kernel.mul_dense(a, b)[:17]
    half = size // 2
    qa = [rng.randrange(50) for _ in range(half - 1)] + [rng.randrange(1, 50)]
    qb = [rng.randrange(50) for _ in range(half - 1)] + [rng.randrange(1, 50)]
    qprod = kernel.mul_dense(qa, qb)
    rows = {
        "mul_dense": lambda: kernel.mul_dense(a, b),
        "eval_dense": lambda: [kernel.eval_dense(short, t % 5 + 2) for t in range(10 * size)],
        "div_exact_dense": lambda: kernel.div_exact_dense(qprod, qb),
    }
    out = {}
    for name, fn in rows.items():
        times = []
        for _ in range(5):
            t0 = perf_counter()
            fn()
            times.append(perf_counter() - t0)
        out[name] = statistics.median(times) * 1e3
    return kernel.BACKEND, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("inputs")
    ap.add_argument("--mode", choices=("load", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--out")
    args = ap.parse_args()
    blocks = load(args.inputs)
    loaded = perf_counter()
    if args.mode == "load":
        print(repr(loaded), statistics.mean(reference() for _ in range(10)))
        return 0
    attach_expected(blocks, os.path.join(os.path.dirname(args.inputs), "expect.json"))
    # The loaded inputs are the harness's, not the program's: keep the
    # collector from rescanning them during the timed calls.
    gc.collect()
    gc.freeze()
    result = {"package": os.path.dirname(bp.__file__)}
    records, wrong = [], []
    if args.mode == "run":
        speed = Speed()
        result["count"], result["wall"] = run_blocks(blocks, records, wrong, args.seconds, speed)
        result["ref_samples"] = speed.samples
    else:
        # Block 0 runs untraced, traced, traced, untraced, back to back, each
        # run's wall time divided by its mean reference sample, and each side
        # keeps its faster run.  Per-layer figures come from the first traced
        # run.
        keep, spare = Tracer(), Tracer()
        walls = {False: [], True: []}
        for side in (False, True, True, False):
            tracer = (spare if walls[True] else keep) if side else None
            rec, speed = [], Speed()
            if tracer:
                result["missing_layers"] = tracer.install(bp)
            try:
                wall = run_block(blocks[0], rec, wrong, speed)
            finally:
                if tracer:
                    tracer.uninstall()
            walls[side].append(wall / statistics.mean(speed.samples))
            if tracer is keep:
                records, result["wall"] = rec, wall
        keep.write(os.path.join(os.path.dirname(args.out), "spans.json"))
        result["layers"] = keep.summary()
        result["overhead"] = 1 - min(walls[False]) / min(walls[True])
        result["kernel_backend"], result["kernel_probes_ms"] = kernel_probes()
    result["records"] = records
    result["wrong"] = wrong
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
