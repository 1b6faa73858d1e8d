"""Benchmark of bigraphpoly: end-to-end figures per workload, or per layer.

    python3 perfbench/run.py --workload factor --seed 1 --seconds 20 --trace 0

Workloads: ``factor`` (factor_pairs and factor_graph over N[x]),
``decompose`` (Petri-net decomposition) and ``algebra`` (encode, decode,
products, sums, isomorphism, canonical forms and the command line), or
``all`` for the three in turn.  Inputs come from the seed alone and every
answer is checked by an oracle independent of the package.

With ``--trace 0`` the figures are end to end: ops per second, per-op
latency p50 and p90, the share of ops that failed (undecided or error),
set-up time and peak memory, with every timing scaled to the speed of a
fixed reference loop timed between the ops, which cancels the drift of a
shared machine's speed.  With ``--trace 1`` they are per layer, from
spans recorded around the calls into each module, and include the tracing
overhead.  The last line of output is one JSON object; the exit code is
nonzero when any answer is wrong.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("factor", "decompose", "algebra")
# Distinct blocks generated per seed: about twice what a 20-s run takes on
# the baseline, since a run never repeats an input.
NBLOCKS = {"factor": 8, "decompose": 28, "algebra": 14}
SETUP_RUNS = 5
# Timings are reported at reference speed, at which the worker's reference
# loop takes REF_S: an op's latency is scaled by REF_S over the mean of the
# reference samples on either side of it, the wall time and set-up time by
# REF_S over the mean of their own samples.  See README.md.
REF_S = 0.0015
CHILD_TIMEOUT = 150

INPUT_KEYS = {"op", "cat", "poly", "graph", "net", "g1", "g2", "argv"}
LAYER_NAMES = {"_match": "match"}  # metric names start with a letter


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def worker(inputs, *extra):
    cmd = [sys.executable, str(HERE / "worker.py"), str(inputs), *extra]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"worker {' '.join(extra)} failed:\n{proc.stderr[-2000:]}")
    return proc.stdout


def prepare(workload, seed, trace):
    """Generate the inputs into a fresh work directory; returns its path."""
    work = HERE / ".work" / f"{workload}-{seed}-{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    generated = gen.generate(workload, seed, NBLOCKS[workload])
    for name, doc in generated["files"].items():
        (work / name).write_text(json.dumps(doc))
    # The program's inputs and the oracle's answers go to separate files, so
    # set-up time covers loading the inputs only.
    inputs = [[{k: v for k, v in op.items() if k in INPUT_KEYS} for op in block]
              for block in generated["blocks"]]
    expect = [[{k: v for k, v in op.items() if k not in INPUT_KEYS} for op in block]
              for block in generated["blocks"]]
    digest = hashlib.sha256()
    for name, data in (("inputs.json", inputs), ("expect.json", expect)):
        text = json.dumps(data, sort_keys=True)
        (work / name).write_text(text)
        digest.update(text.encode())
    ops = sum(len(b) for b in inputs)
    print(f"# {workload}: seed {seed}, {len(inputs)} blocks of {len(inputs[0])} ops "
          f"({ops} distinct ops), input hash {digest.hexdigest()[:16]}")
    return work


def setup_seconds(inputs):
    """Fresh interpreter to package imported and inputs loaded, at reference
    speed; median of runs."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        loaded, ref = map(float, worker(inputs, "--mode", "load").split())
        times.append((loaded - t0) * REF_S / ref)
    return statistics.median(times), len(times)


def summarize(records):
    attempted = len(records)
    failed = sum(1 for _, out, _ in records if out in ("undecided", "error"))
    ms = [dt * 1e3 for *_, dt in records]
    return {"attempted": attempted, "failed": failed, "p50": statistics.median(ms),
            "p90": statistics.quantiles(ms, n=10)[-1]}


def category_lines(records):
    cats = {}
    for cat, out, dt in records:
        row = cats.setdefault(cat, {"n": 0, "ms": []})
        row["n"] += 1
        row[out] = row.get(out, 0) + 1
        row["ms"].append(dt * 1e3)
    for cat in sorted(cats):
        row = cats[cat]
        outs = ", ".join(f"{k} {row[k]}" for k in ("ok", "undecided", "error", "wrong") if k in row)
        print(f"#   {cat:<11} n={row['n']:<5} median {statistics.median(row['ms']):9.3f} ms  "
              f"total {sum(row['ms']) / 1e3:8.3f} s  ({outs})")


def metric(metrics, name, value, unit, n=None):
    metrics[name] = {"value": value, "unit": unit}
    count = f" (n={n})" if n is not None else ""
    print(f"{name} = {value:.6g} {unit}{count}")


def end_to_end(workload, seed, seconds):
    work = prepare(workload, seed, 0)
    inputs = work / "inputs.json"
    setup_s, setup_n = setup_seconds(inputs)
    worker(inputs, "--mode", "run", "--seconds", str(seconds), "--out", str(work / "result.json"))
    res = json.loads((work / "result.json").read_text())
    ref = res["ref_samples"]
    scale = REF_S / statistics.mean(ref)
    # An op's latency is scaled by the samples on either side of it.
    records = [(cat, out, dt * 2 * REF_S / (ref[max(k - 1, 0)] + ref[min(k, len(ref) - 1)]))
               for cat, out, dt, k in res["records"]]
    s = summarize(records)
    wall = res["wall"] * scale
    n = f"{s['attempted']} ops in {res['count']} blocks"
    print(f"# package {res['package']}")
    print(f"# reference loop {statistics.mean(ref) * 1e3:.3f} ms (mean of {len(ref)}), "
          f"{REF_S * 1e3:g} ms at reference speed; measured wall time {res['wall']:.3f} s, "
          f"{s['attempted'] / res['wall']:.4g} ops/s")
    category_lines(records)
    m = {}
    metric(m, "ops_per_s", s["attempted"] / wall, "1/s", n)
    metric(m, "op_p50_ms", s["p50"], "ms", n)
    metric(m, "op_p90_ms", s["p90"], "ms", n)
    metric(m, "failed_ratio", s["failed"] / s["attempted"], "ratio", n)
    metric(m, "setup_s", setup_s, "s", setup_n)
    metric(m, "peak_rss_mb", res["peak_rss_kb"] / 1024, "MB")
    return res["wrong"], s["attempted"], s["failed"], m


def per_layer(workload, seed):
    work = prepare(workload, seed, 1)
    worker(work / "inputs.json", "--mode", "trace", "--out", str(work / "result.json"))
    res = json.loads((work / "result.json").read_text())
    records = [(cat, out, dt) for cat, out, dt, _ in res["records"]]
    s = summarize(records)
    attempted, failed, wall = s["attempted"], s["failed"], res["wall"]
    layers = res["layers"]
    extra = layers.pop("extra")
    print(f"# package {res['package']}; traced block 0, spans in {work / 'spans.json'}")
    if res["missing_layers"]:
        print(f"# layers not present in this package: {', '.join(res['missing_layers'])}")
    category_lines(records)
    backend = res["kernel_backend"]
    note = "" if backend == "compiled" else (
        "; the compiled extension is not built (Cython absent), so only the "
        "pure-Python kernel path is measured")
    print(f"# kernel.BACKEND = {backend}{note}")
    m = {}
    self_sum = 0.0
    for layer, row in layers.items():
        name = LAYER_NAMES.get(layer, layer)
        metric(m, f"{name}.calls", row["calls"], "count")
        metric(m, f"{name}.self_s", row["self_s"], "s")
        self_sum += row["self_s"]
    for key, value in extra.items():
        layer, rest = key.split(".")
        unit = "ratio" if rest.endswith("ratio") else "count"
        metric(m, f"{LAYER_NAMES.get(layer, layer)}.{rest}", value, unit)
    for name in ("mul_dense", "eval_dense", "div_exact_dense"):
        metric(m, f"kernel.{name}_ms", res["kernel_probes_ms"].get(name, 0.0), "ms", 5)
    metric(m, "trace.wall_s", wall, "s", f"{attempted} ops")
    metric(m, "trace.self_sum_s", self_sum, "s")
    metric(m, "trace.overhead_ratio", res["overhead"], "ratio")
    wrong = list(res["wrong"])
    if self_sum > wall:
        wrong.append(f"layer self times {self_sum:.6f} s exceed wall time {wall:.6f} s")
    return wrong, attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "bigraphpoly" / "__init__.py").is_file():
        fail(f"no package source at {ROOT / 'src' / 'bigraphpoly'}")
    print(f"# python {sys.version.split()[0]}, nproc {os.cpu_count()}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, one process, one thread, closed loop")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        print(f"## workload {name}")
        if args.trace:
            wrong, n, f, m = per_layer(name, args.seed)
        else:
            wrong, n, f, m = end_to_end(name, args.seed, args.seconds)
        for why in wrong[:20]:
            print(f"WRONG {name}: {why}")
        correct = correct and not wrong
        attempted += n
        failed += f
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
