"""Command line front end.

Exit codes: 0 success (or positive answer), 1 certified negative answer
(not isomorphic, nothing factors, no decomposition), 2 inconclusive (a
search ran out of its budget), 3 bad input or usage.

Commands that need labels use the ones embedded in the file; without them
the compact labeling 0..|v|-1 in declared order is used and announced on
stderr.  Polynomial arguments and graph-file arguments share some slots:
anything that exists on disk, names a path, or ends in .json is treated as
a file, the rest parses as a polynomial.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import fileio
from .bigraph import decode, decode_directed
from .core import canonical_poly, encode, is_isomorphic, poly_product, poly_sum
from .errors import BudgetExceededError
from .graphfactor import factor_graph, is_irreducible
from .petri import decode_net, decompose, net_product, witness
from .poly import Poly1, Poly2, content, int_text, lift, parse_poly, render
from .polyfactor import Budget, factor_pairs


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 means inconclusive here.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"error: {message}\n")


def _note(msg):
    print(f"note: {msg}", file=sys.stderr)


def _labels_for(doc: fileio.Document, name: str) -> dict:
    if doc.labels is not None:
        return doc.labels
    ids = doc.obj.v_vertices
    if ids:
        _note(f"{name}: no labels given, using 0..{len(ids) - 1} in declared order")
    return {x: i for i, x in enumerate(ids)}


def _looks_like_file(arg: str) -> bool:
    return os.path.exists(arg) or os.sep in arg or arg.endswith(".json")


def _emit(doc: dict, output):
    text = fileio.dumps(doc)
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _load(path, net=False):
    doc = fileio.load_document(path)
    if (doc.kind == "net") != net:
        want = "a net" if net else "a graph"
        raise ValueError(f"{path}: expected {want} file, got a {doc.kind}")
    return doc


def _budget(args) -> Budget:
    if getattr(args, "budget", None) is None:
        return Budget()
    return Budget(max_steps=args.budget)


# ---------------------------------------------------------------------------
# Graph commands.

def _cmd_encode(args):
    doc = _load(args.file)
    print(render(encode(doc.obj, _labels_for(doc, args.file))))
    return 0


def _cmd_decode(args):
    p = parse_poly(args.poly)
    if args.directed:
        p = lift(p)
    g = decode_directed(p) if isinstance(p, Poly2) else decode(p)
    _emit(fileio.document_for(g, g.natural_labeling), args.output)
    return 0


def _binary_graph_op(args, op):
    d1 = _load(args.file1)
    d2 = _load(args.file2)
    if d1.kind != d2.kind:
        raise ValueError(f"mixed graph kinds: {d1.kind} and {d2.kind}")
    if args.directed and d1.kind != "digraph":
        raise ValueError("--directed needs directed graph files")
    g = op(d1.obj, _labels_for(d1, args.file1), d2.obj, _labels_for(d2, args.file2))
    _emit(fileio.document_for(g, g.natural_labeling), args.output)
    return 0


def _cmd_product(args):
    return _binary_graph_op(args, poly_product)


def _cmd_sum(args):
    return _binary_graph_op(args, poly_sum)


def _pair_line(q, r):
    return f"({render(q)}) * ({render(r)})"


def _print_pairs(pairs, empty_msg):
    for q, r in pairs:
        print(_pair_line(q, r))
    if not pairs:
        print(empty_msg)
        return 1
    return 0


def _encoded(pair):
    return tuple(encode(g, g.natural_labeling) for g in pair)


def _cmd_factor(args):
    budget = _budget(args)
    if not _looks_like_file(args.input):
        if args.exhaustive_labels:
            raise ValueError("--exhaustive-labels needs a graph file input")
        p = parse_poly(args.input)
        if not p:
            raise ValueError("cannot factor the zero polynomial")
        c = content(p)
        if c > 1:
            print(f"content: {int_text(c)}")
        if isinstance(p, Poly1):
            return _print_pairs(factor_pairs(p, budget), "irreducible")
        # A two-variable polynomial is the encoding of the digraph it decodes to.
        g = decode_directed(p)
        kind, labels = "digraph", g.natural_labeling
    else:
        doc = _load(args.input)
        g, kind, labels = doc.obj, doc.kind, _labels_for(doc, args.input)
    if args.exhaustive_labels:
        report = is_irreducible(g, exhaustive=True, budget=budget)
        if report.verdict == "reducible":
            lab, pair = report.witness
            print(f"reducible over compact labelings; witness labeling {lab}")
            return _print_pairs([_encoded(pair)], "")
        print(f"{report.verdict} over compact labelings")
        return 1 if report.verdict == "irreducible" else 2
    pairs = [_encoded(pair) for pair in factor_graph(g, labels, budget)]
    if kind == "bigraph":
        return _print_pairs(pairs, "irreducible under this labeling")
    return _print_pairs(pairs, "no bit-disjoint factor pairs")


def _cmd_canon(args):
    if _looks_like_file(args.input):
        doc = _load(args.input)
        g = doc.obj
    else:
        p = parse_poly(args.input)
        g = decode_directed(p) if isinstance(p, Poly2) else decode(p)
    print(render(canonical_poly(g)))
    return 0


def _cmd_iso(args):
    d1 = fileio.load_document(args.file1)
    d2 = fileio.load_document(args.file2)
    if d1.kind != d2.kind:
        raise ValueError(f"mixed kinds: {d1.kind} and {d2.kind}")
    found = is_isomorphic(d1.obj, d2.obj)
    if found is None:
        print("not isomorphic")
        return 1
    names = ("event_map", "condition_map") if d1.kind == "net" else ("u_map", "v_map")
    sys.stdout.write(fileio.dumps(dict(zip(names, found))))
    return 0


def _cmd_dot(args):
    doc = fileio.load_document(args.file)
    sys.stdout.write(fileio.to_dot(doc.obj, doc.labels))
    return 0


# ---------------------------------------------------------------------------
# Net commands.

def _cmd_net_encode(args):
    doc = _load(args.file, net=True)
    labels = _labels_for(doc, args.file)
    print(render(encode(doc.obj, labels)))
    return 0


def _cmd_net_decode(args):
    p = lift(parse_poly(args.poly))
    labeled = decode_net(p)
    _emit(fileio.net_document(labeled.net, labeled.labeling), args.output)
    return 0


def _cmd_net_product(args):
    d1 = _load(args.file1, net=True)
    d2 = _load(args.file2, net=True)
    _emit(fileio.net_document(net_product(d1.obj, d2.obj)), args.output)
    return 0


def _cmd_net_decompose(args):
    doc = _load(args.file, net=True)
    labels = _labels_for(doc, args.file)
    pairs = decompose(doc.obj, labels, _budget(args))
    if not pairs:
        print("no decomposition under this labeling")
        return 1
    whole = render(encode(doc.obj, labels))
    for pair in pairs:
        print(f"{whole} = {_pair_line(*(encode(h.net, h.labeling) for h in pair))}")
    prefix = args.out_prefix
    if prefix is None:
        prefix = os.path.splitext(args.file)[0]
    paths = [f"{prefix}.factor{k}.json" for k in (1, 2)]
    for path, half in zip(paths, pairs[0]):
        Path(path).write_text(fileio.dumps(fileio.net_document(half.net, half.labeling)))
    _note(f"wrote {paths[0]} and {paths[1]}")
    emap, cmap = witness(doc.obj, labels, *pairs[0])
    smap = fileio.string_ids(list(emap) + list(cmap))
    cert = {
        "event_map": {smap[k]: v for k, v in emap.items()},
        "condition_map": {smap[k]: v for k, v in cmap.items()},
    }
    sys.stdout.write(fileio.dumps(cert))
    return 0


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built on the first call and shared after it:
    parsing leaves it unchanged, and each parse_args returns a new
    Namespace."""
    top = _Parser(prog="bigraphpoly", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="graph file to polynomial")
    p.add_argument("file")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="polynomial to graph file")
    p.add_argument("poly")
    p.add_argument("--directed", action="store_true",
                   help="decode a pure-x polynomial as a digraph")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_decode)

    for name, fn, summary in (
        ("product", _cmd_product, "product of two labeled graph files"),
        ("sum", _cmd_sum, "sum of two labeled graph files"),
    ):
        p = sub.add_parser(name, help=summary)
        p.add_argument("file1")
        p.add_argument("file2")
        p.add_argument("--directed", action="store_true",
                       help="require directed inputs")
        p.add_argument("-o", "--output")
        p.set_defaults(func=fn)

    p = sub.add_parser("factor", help="all two-factor splits of a polynomial or graph file")
    p.add_argument("input")
    p.add_argument("--exhaustive-labels", action="store_true",
                   help="graph input: answer for every compact labeling")
    p.add_argument("--budget", type=int, help="search allowance override")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("canon", help="canonical polynomial of a graph file or polynomial")
    p.add_argument("input")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("iso", help="part-respecting isomorphism witness")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("net-encode", help="net file to polynomial")
    p.add_argument("file")
    p.set_defaults(func=_cmd_net_encode)

    p = sub.add_parser("net-decode", help="polynomial to net file")
    p.add_argument("poly")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_net_decode)

    p = sub.add_parser("net-product", help="pointed product of two net files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_net_product)

    p = sub.add_parser("net-decompose", help="split a net file into a product")
    p.add_argument("file")
    p.add_argument("--budget", type=int, help="search allowance override")
    p.add_argument("--out-prefix", help="factor files prefix (default: input name)")
    p.set_defaults(func=_cmd_net_decompose)

    p = sub.add_parser("dot", help="GraphViz text for any graph or net file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_dot)

    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as e:
        hint = "; raise it with --budget" if hasattr(args, "budget") else ""
        print(f"inconclusive: {e}{hint}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
