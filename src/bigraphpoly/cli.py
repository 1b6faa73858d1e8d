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
from .core import canonical_poly, compact_labeling, encode, is_isomorphic
from .errors import BudgetExceededError, _brief
from .graphfactor import graph_factor_pairs, is_irreducible
from .petri import decode_net, net_product, witness
from .poly import Poly1, Poly2, add, content, int_text, lift, mul, parse_poly, render
from .polyfactor import Budget, bit_disjoint_factor, factor_pairs


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
    return compact_labeling(doc.obj)


def _looks_like_file(arg: str) -> bool:
    return os.path.exists(arg) or os.sep in arg or arg.endswith(".json")


def _emit(text: str, output):
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


def _steps(text) -> int:
    """The --budget argument as an int, with error text of bounded size."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_brief(text)}") from None


# ---------------------------------------------------------------------------
# Graph commands.

def _cmd_encode(args):
    doc = _load(args.file, args.net)
    print(render(encode(doc.obj, _labels_for(doc, args.file))))
    return 0


def _cmd_decode(args):
    p = parse_poly(args.poly)
    if args.directed:
        p = lift(p)
    _emit(fileio.decoded_text(p), args.output)
    return 0


def _binary_graph_op(args):
    """product or sum: args.op on the encodings of two files of one kind,
    written as the decoding of the result."""
    d1 = _load(args.file1)
    d2 = _load(args.file2)
    if d1.kind != d2.kind:
        raise ValueError(f"mixed graph kinds: {d1.kind} and {d2.kind}")
    l1, l2 = _labels_for(d1, args.file1), _labels_for(d2, args.file2)
    _emit(fileio.decoded_text(args.op(encode(d1.obj, l1), encode(d2.obj, l2))), args.output)
    return 0


def _print_pairs(pairs, empty_msg, head=""):
    for q, r in pairs:
        print(f"{head}({render(q)}) * ({render(r)})")
    if not pairs:
        print(empty_msg)
        return 1
    return 0


def _cmd_factor(args):
    budget = Budget(args.budget)
    if not _looks_like_file(args.input):
        if args.exhaustive_labels:
            raise ValueError("--exhaustive-labels needs a graph file input")
        p = parse_poly(args.input)
        c = content(p)
        if c > 1:
            print(f"content: {int_text(c)}")
        if isinstance(p, Poly1):
            return _print_pairs(factor_pairs(p, budget), "irreducible")
        return _print_pairs(bit_disjoint_factor(p, budget), "no bit-disjoint factor pairs")
    doc = _load(args.input)
    g, labels = doc.obj, _labels_for(doc, args.input)
    if args.exhaustive_labels:
        report = is_irreducible(g, exhaustive=True, budget=budget)
        if report.verdict == "reducible":
            lab, pair = report.witness
            print(f"reducible over compact labelings; witness labeling {lab}")
            return _print_pairs([[encode(h, h.natural_labeling) for h in pair]], "")
        print(f"{report.verdict} over compact labelings")
        return 1 if report.verdict == "irreducible" else 2
    pairs = graph_factor_pairs(g, labels, budget)
    if doc.kind == "bigraph":
        return _print_pairs(pairs, "irreducible under this labeling")
    return _print_pairs(pairs, "no bit-disjoint factor pairs")


def _cmd_canon(args):
    if _looks_like_file(args.input):
        g = fileio.load_document(args.input).obj
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

def _cmd_net_decode(args):
    p = lift(parse_poly(args.poly))
    labeled = decode_net(p)
    _emit(fileio.net_text(labeled.net, labeled.labeling), args.output)
    return 0


def _cmd_net_product(args):
    d1 = _load(args.file1, net=True)
    d2 = _load(args.file2, net=True)
    _emit(fileio.net_text(net_product(d1.obj, d2.obj)), args.output)
    return 0


def _cmd_net_decompose(args):
    budget = Budget(args.budget)
    doc = _load(args.file, net=True)
    labels = _labels_for(doc, args.file)
    # The encoded pairs are the encodings of decompose's halves; only the
    # first pair is decoded, for the factor files and the certificate.
    pairs = graph_factor_pairs(doc.obj, labels, budget)
    whole = f"{render(encode(doc.obj, labels))} = "
    if _print_pairs(pairs, "no decomposition under this labeling", whole):
        return 1
    halves = [decode_net(h) for h in pairs[0]]
    prefix = args.out_prefix
    if prefix is None:
        prefix = os.path.splitext(args.file)[0]
    paths = [f"{prefix}.factor{k}.json" for k in (1, 2)]
    for path, half in zip(paths, halves):
        Path(path).write_text(fileio.net_text(half.net, half.labeling))
    _note(f"wrote {paths[0]} and {paths[1]}")
    emap, cmap = witness(doc.obj, labels, *halves)
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
    # Arguments that several subcommands take, each declared once.
    file, files, output, budget = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    file.add_argument("file")
    files.add_argument("file1")
    files.add_argument("file2")
    output.add_argument("-o", "--output")
    budget.add_argument("--budget", type=_steps, default=Budget.max_steps,
                        help="search allowance in steps (default: %(default)s)")

    p = sub.add_parser("encode", help="graph file to polynomial", parents=[file])
    p.set_defaults(func=_cmd_encode, net=False)

    p = sub.add_parser("decode", help="polynomial to graph file", parents=[output])
    p.add_argument("poly")
    p.add_argument("--directed", action="store_true",
                   help="decode a pure-x polynomial as a digraph")
    p.set_defaults(func=_cmd_decode)

    for name, op in (("product", mul), ("sum", add)):
        p = sub.add_parser(name, help=f"{name} of two labeled graph files",
                           parents=[files, output])
        p.set_defaults(func=_binary_graph_op, op=op)

    p = sub.add_parser("factor", help="all two-factor splits of a polynomial or graph file",
                       parents=[budget])
    p.add_argument("input")
    p.add_argument("--exhaustive-labels", action="store_true",
                   help="graph input: answer for every compact labeling")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("canon", help="canonical polynomial of a polynomial or a graph or net file")
    p.add_argument("input")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("iso", help="part-respecting isomorphism witness", parents=[files])
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("net-encode", help="net file to polynomial", parents=[file])
    p.set_defaults(func=_cmd_encode, net=True)

    p = sub.add_parser("net-decode", help="polynomial to net file", parents=[output])
    p.add_argument("poly")
    p.set_defaults(func=_cmd_net_decode)

    p = sub.add_parser("net-product", help="pointed product of two net files",
                       parents=[files, output])
    p.set_defaults(func=_cmd_net_product)

    p = sub.add_parser("net-decompose", help="split a net file into a product",
                       parents=[file, budget])
    p.add_argument("--out-prefix", help="factor files prefix (default: input name)")
    p.set_defaults(func=_cmd_net_decompose)

    p = sub.add_parser("dot", help="GraphViz text for any graph or net file", parents=[file])
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
