"""Command line behavior: printed output, exit codes, and file handling."""

import functools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bigraphpoly
from bigraphpoly import (
    Bigraph,
    Budget,
    BudgetExceededError,
    DiBigraph,
    PetriNet,
    Poly2,
    canonical_poly_directed,
    compact_net_labeling,
    content,
    decode,
    decode_directed,
    decode_net,
    decompose,
    direct_product,
    encode,
    encode_directed,
    factor_graph,
    factor_pairs,
    LabelingError,
    mul,
    net_product,
    parse_poly1,
    render,
)
from bigraphpoly import cli, core, fileio
from bigraphpoly.cli import main
from bigraphpoly.petri import witness
from bigraphpoly.poly import parse_poly

from helpers import (
    bigraph_document,
    digraph_document,
    document_for,
    first_difference,
    net_document,
    random_bigraph,
    random_labeling,
    random_net,
    reference_document,
    reference_text,
    three_prime_nets,
    wide_graph,
)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write(path, doc):
    path.write_text(fileio.dumps(doc))
    return str(path)


# ---------------------------------------------------------------------------
# Fixture objects.

def hub_graph():
    return Bigraph(
        ["u1", "u2", "u3"],
        ["v1", "v2", "v3"],
        [("u1", "v1"), ("u1", "v2"), ("u1", "v3"), ("u3", "v1"), ("u3", "v3")],
    )


HUB_LABELS = {"v1": 0, "v2": 1, "v3": 2}


def path_piece():
    return Bigraph(["u11", "u12"], ["v11", "v12"], [("u11", "v11"), ("u11", "v12")])


def fork_piece():
    return Bigraph(
        ["u21", "u22"],
        ["v21", "v22"],
        [("u21", "v21"), ("u22", "v21"), ("u22", "v22")],
    )


def relay_graph():
    return DiBigraph(
        ["u1", "u2"],
        ["v1", "v2"],
        [("u1", "v1"), ("u1", "v2"), ("v2", "u2")],
    )


def branching_net():
    return PetriNet(
        ["b0", "b1"],
        ["a", "b", "c"],
        pre={"a": ["b0"], "b": ["b0"]},
        post={"b": ["b1"], "c": ["b1"]},
    )


BRANCH_LABELS = {"b0": 0, "b1": 1}


def cycle_net():
    return PetriNet(
        [f"b{i}" for i in range(6)],
        ["e1", "e2", "e3", "e4"],
        pre={
            "e1": ["b0", "b3"],
            "e2": ["b1", "b2"],
            "e3": ["b3", "b5"],
            "e4": ["b2", "b4"],
        },
        post={
            "e1": ["b1", "b2"],
            "e2": ["b0", "b3"],
            "e3": ["b2", "b4"],
            "e4": ["b3", "b5"],
        },
    )


def eight_cycle():
    # Single 8-cycle: every vertex has degree 2.
    edges = []
    for i in range(4):
        edges.append((f"u{i}", f"v{i}"))
        edges.append((f"u{i}", f"v{(i + 1) % 4}"))
    return Bigraph([f"u{i}" for i in range(4)], [f"v{i}" for i in range(4)], edges)


def two_squares():
    # Two disjoint 4-cycles: same degree sequence as the 8-cycle.
    edges = [
        ("u0", "v0"), ("u0", "v1"), ("u1", "v0"), ("u1", "v1"),
        ("u2", "v2"), ("u2", "v3"), ("u3", "v2"), ("u3", "v3"),
    ]
    return Bigraph([f"u{i}" for i in range(4)], [f"v{i}" for i in range(4)], edges)


@pytest.fixture
def hub_file(tmp_path):
    return write(tmp_path / "hub.json", bigraph_document(hub_graph(), HUB_LABELS))


@pytest.fixture
def branch_file(tmp_path):
    return write(tmp_path / "branch.json",
                 net_document(branching_net(), BRANCH_LABELS))


# ---------------------------------------------------------------------------
# encode / decode.

def test_encode_golden(capsys, hub_file):
    code, out, err = run(capsys, "encode", hub_file)
    assert code == 0
    assert out == "x^7 + x^5 + 1\n"
    assert err == ""


def test_encode_without_labels_notes_the_default(capsys, tmp_path):
    path = write(tmp_path / "hub.json", bigraph_document(hub_graph()))
    code, out, err = run(capsys, "encode", path)
    assert code == 0
    # Declared order happens to match the explicit labeling.
    assert out == "x^7 + x^5 + 1\n"
    assert "note:" in err and "no labels given" in err


def test_decode_then_encode_is_byte_stable(capsys, tmp_path):
    target = str(tmp_path / "g.json")
    code, out, err = run(capsys, "decode", "2*x^5 + x^3 + x^2 + 2", "-o", target)
    assert code == 0 and out == "" and err == ""
    code, out, err = run(capsys, "encode", target)
    assert code == 0
    assert out == "2*x^5 + x^3 + x^2 + 2\n"
    assert err == ""


def test_decode_writes_json_to_stdout(capsys):
    code, out, err = run(capsys, "decode", "x^2 + 1")
    assert code == 0
    doc = json.loads(out)
    assert "u" in doc and "v" in doc and "labels" in doc


def test_decode_directed_flag_lifts_to_a_digraph(capsys, tmp_path):
    target = str(tmp_path / "d.json")
    code, out, err = run(capsys, "decode", "--directed", "x^3 + 1", "-o", target)
    assert code == 0
    assert fileio.load_document(target).kind == "digraph"
    code, out, err = run(capsys, "encode", target)
    assert (code, out) == (0, "x^3 + 1\n")


def test_decode_bivariate_string_makes_a_digraph(capsys, tmp_path):
    target = str(tmp_path / "d.json")
    assert run(capsys, "decode", "x^2*y + 1", "-o", target)[0] == 0
    assert fileio.load_document(target).kind == "digraph"
    code, out, err = run(capsys, "encode", target)
    assert (code, out) == (0, "x^2*y + 1\n")


# ---------------------------------------------------------------------------
# product / sum.

def _piece_files(tmp_path):
    f1 = write(tmp_path / "p1.json",
               bigraph_document(path_piece(), {"v11": 0, "v12": 1}))
    f2 = write(tmp_path / "p2.json",
               bigraph_document(fork_piece(), {"v21": 2, "v22": 3}))
    return f1, f2


def test_product_golden(capsys, tmp_path):
    f1, f2 = _piece_files(tmp_path)
    target = str(tmp_path / "prod.json")
    code, out, err = run(capsys, "product", f1, f2, "-o", target)
    assert code == 0
    code, out, err = run(capsys, "encode", target)
    assert (code, out) == (0, "x^15 + x^12 + x^7 + x^4\n")


def test_sum_golden(capsys, tmp_path):
    f1, f2 = _piece_files(tmp_path)
    code, out, err = run(capsys, "sum", f1, f2)
    assert code == 0
    doc = json.loads(out)
    path = write(tmp_path / "sum.json", doc)
    code, out, err = run(capsys, "encode", path)
    assert (code, out) == (0, "x^12 + x^4 + x^3 + 1\n")


@pytest.mark.parametrize("command, make, want", [
    ("encode", lambda: net_document(branching_net()), "a graph file, got a net"),
    ("net-encode", lambda: bigraph_document(hub_graph()), "a net file, got a bigraph"),
])
def test_encode_of_the_other_kind_is_one_error_line(capsys, tmp_path, command, make, want):
    path = write(tmp_path / "other.json", make())
    assert run(capsys, command, path) == (3, "", f"error: {path}: expected {want}\n")


def test_product_mixed_kinds_is_an_input_error(capsys, tmp_path, hub_file):
    d = write(tmp_path / "d.json", digraph_document(relay_graph()))
    code, out, err = run(capsys, "product", hub_file, d)
    assert code == 3
    assert "mixed graph kinds" in err


def test_directed_product_matches_the_library(capsys, tmp_path):
    labels = {"v1": 0, "v2": 1}
    f = write(tmp_path / "r.json", digraph_document(relay_graph(), labels))
    target = str(tmp_path / "prod.json")
    assert run(capsys, "product", f, f, "-o", target)[0] == 0
    p = encode_directed(relay_graph(), labels)
    code, out, err = run(capsys, "encode", target)
    assert (code, out) == (0, render(mul(p, p)) + "\n")


def _same_bytes_both_ways(capsys, tmp_path, argv, want):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert first_difference(out, want) is None
    target = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "-o", str(target))
    assert (code, out, err) == (0, "", "")
    assert first_difference(target.read_text(), want) is None


@pytest.mark.parametrize("directed", [False, True])
def test_product_and_sum_of_hundred_u_graphs_are_graph_text_bytes(capsys, tmp_path, directed):
    """The benchmark's size: two graphs of 100 u-vertices on 6 v-vertices,
    labels drawn from range(9), so the product has 10,000 u-vertices."""
    rng = random.Random(89 + directed)
    graphs = [wide_graph(rng, directed=directed) for _ in range(2)]
    labels = [random_labeling(rng, g.v_vertices, 8) for g in graphs]
    files = [write(tmp_path / f"g{k}.json", document_for(g, lab))
             for k, (g, lab) in enumerate(zip(graphs, labels))]
    for name, op in (("product", core.poly_product), ("sum", core.poly_sum)):
        g = op(graphs[0], labels[0], graphs[1], labels[1])
        assert len(g.u_vertices) == (10**4 if name == "product" else 200)
        code, out, err = run(capsys, name, *files)
        assert (code, err) == (0, "")
        assert first_difference(out, fileio.graph_text(g, g.natural_labeling)) is None


@pytest.mark.parametrize("directed", [False, True])
def test_product_sum_and_decode_print_the_reference_bytes(capsys, tmp_path, directed):
    """The bytes of json.dumps(indent=2) on the document built by listing
    every edge in u order, then v order, on stdout and through -o."""
    rng = random.Random(87 + directed)
    graphs = [wide_graph(rng, 30, 5, directed) for _ in range(2)]
    labels = [random_labeling(rng, g.v_vertices, 9) for g in graphs]
    files = [write(tmp_path / f"g{k}.json", document_for(g, lab))
             for k, (g, lab) in enumerate(zip(graphs, labels))]
    for name, op in (("product", core.poly_product), ("sum", core.poly_sum)):
        g = op(graphs[0], labels[0], graphs[1], labels[1])
        want = json.dumps(reference_document(g, g.natural_labeling), indent=2) + "\n"
        _same_bytes_both_ways(capsys, tmp_path, [name, *files], want)
        p = core.encode(g, g.natural_labeling)
        g = decode_directed(p) if directed else decode(p)
        want = json.dumps(reference_document(g, g.natural_labeling), indent=2) + "\n"
        _same_bytes_both_ways(capsys, tmp_path, ["decode", render(p)], want)


def test_net_commands_print_the_reference_bytes(capsys, tmp_path):
    """net-product and net-decode print json.dumps(indent=2) of the document
    built one dict per event, on stdout and through -o; net-decompose writes
    its factor files and certificate in the same format."""
    rng = random.Random(89)
    nets = [random_net(rng, 6, 5) for _ in range(2)]
    files = [write(tmp_path / f"n{k}.json", net_document(n)) for k, n in enumerate(nets)]
    prod = net_product(*nets)
    _same_bytes_both_ways(capsys, tmp_path, ["net-product", *files], reference_text(prod))
    # a second constant unit decodes to an event with empty pre and post sets
    p = encode_directed(prod, compact_net_labeling(prod)) + Poly2({(0, 0): 1})
    labeled = decode_net(p)
    _same_bytes_both_ways(capsys, tmp_path, ["net-decode", render(p)],
                          reference_text(labeled.net, labeled.labeling))
    net = three_prime_nets()
    path = write(tmp_path / "three.json", net_document(net, compact_net_labeling(net)))
    code, out, err = run(capsys, "net-decompose", path, "--out-prefix", str(tmp_path / "f"))
    assert code == 0
    doc = fileio.load_document(path)
    net, labels = doc.obj, doc.labels
    pairs = decompose(net, labels)
    whole = render(encode_directed(net, labels))
    lines = [f"{whole} = ({render(encode_directed(h1.net, h1.labeling))})"
             f" * ({render(encode_directed(h2.net, h2.labeling))})\n" for h1, h2 in pairs]
    emap, cmap = witness(net, labels, *pairs[0])
    names = fileio.string_ids(list(emap) + list(cmap))
    cert = {"event_map": {names[k]: v for k, v in emap.items()},
            "condition_map": {names[k]: v for k, v in cmap.items()}}
    assert out == "".join(lines) + json.dumps(cert, indent=2) + "\n"
    for k, half in enumerate(pairs[0], 1):
        got = (tmp_path / f"f.factor{k}.json").read_text()
        assert got == reference_text(half.net, half.labeling)


def test_iso_prints_json_dumps_of_its_maps(capsys, tmp_path):
    rng = random.Random(90)
    for make, names in ((random_bigraph, ("u_map", "v_map")),
                        (random_net, ("event_map", "condition_map"))):
        obj = make(rng)
        files = [write(tmp_path / f"{k}.json", document_for(obj)) for k in (1, 2)]
        code, out, err = run(capsys, "iso", *files)
        found = core.is_isomorphic(obj, obj)
        assert (code, err) == (0, "")
        assert out == json.dumps(dict(zip(names, found)), indent=2) + "\n"


# ---------------------------------------------------------------------------
# factor.
# ---------------------------------------------------------------------------
# factor.

def test_factor_poly_golden(capsys):
    code, out, err = run(capsys, "factor", "x^3 + 2*x^2 + 2*x + 1")
    assert code == 0
    assert out == "(x + 1) * (x^2 + x + 1)\n"


def test_factor_poly_irreducible_exits_1(capsys):
    code, out, err = run(capsys, "factor", "x^3 + 1")
    assert code == 1
    assert out == "irreducible\n"


def test_factor_reports_content(capsys):
    code, out, err = run(capsys, "factor", "2*x^2 + 2*x")
    assert code == 0
    assert out.splitlines() == [
        "content: 2",
        "(x) * (2*x + 2)",
        "(x + 1) * (2*x)",
    ]


def test_factor_budget_zero_is_inconclusive(capsys):
    code, out, err = run(capsys, "factor", "--budget", "0", "x^2 + 1")
    assert code == 2
    assert err.startswith("inconclusive:")


def test_factor_degree_two_to_the_twenty_product(capsys):
    code, out, err = run(
        capsys, "factor",
        "x^1572864 + 2*x^1310720 + x^1048576 + x^524288 + 2*x^262144 + 1",
    )
    assert code == 0
    assert "(x^262144 + 1) * (x^1310720 + x^1048576 + x^262144 + 1)" in out.splitlines()


def test_factor_bivariate_golden(capsys):
    code, out, err = run(capsys, "factor", "x*y^2 + x + y^2 + 1")
    assert code == 0
    assert out == "(y^2 + 1) * (x + 1)\n"


def test_factor_bivariate_with_content(capsys):
    code, out, err = run(capsys, "factor", "2*y^2")
    assert code == 0
    assert out.splitlines() == ["content: 2", "(2) * (y^2)"]


def test_factor_bivariate_without_pairs_exits_1(capsys):
    code, out, err = run(capsys, "factor", "x*y + 1")
    assert code == 1
    assert out == "no bit-disjoint factor pairs\n"


def digraph_route(text, budget):
    """(exit code, stdout, stderr) of factor on two-variable text when it
    went by way of the digraph the text decodes to: factor_graph on that
    digraph under its natural labeling, each half encoded back."""
    p = parse_poly(text)
    if not p:
        return 3, "", "error: cannot factor the zero polynomial\n"
    out = f"content: {content(p)}\n" if content(p) > 1 else ""
    g = decode_directed(p)
    try:
        pairs = factor_graph(g, g.natural_labeling, budget)
    except BudgetExceededError as e:
        return 2, out, f"inconclusive: {e}; raise it with --budget\n"
    for pair in pairs:
        q, r = (render(encode_directed(h, h.natural_labeling)) for h in pair)
        out += f"({q}) * ({r})\n"
    return (0, out, "") if pairs else (1, out + "no bit-disjoint factor pairs\n", "")


SPLITS_THREE_WAYS = "x^5*y^6 + x^5*y^2 + x^4*y^6 + x^4*y^2 + x*y^6 + x*y^2 + y^6 + y^2"


@pytest.mark.parametrize("text, steps, code", [
    ("x^2*y^2 + 2*x*y + 1", None, 1),
    ("6*x*y + 6", None, 0),
    ("12*x^3*y^5 + 12*x^3 + 12*y^5 + 12", None, 0),
    (SPLITS_THREE_WAYS, None, 0),
    ("0*y", None, 3),
    ("12*x^3*y^5 + 12*x^3 + 12*y^5 + 12", 8, 2),
    (SPLITS_THREE_WAYS, 20, 2),
])
def test_factor_bivariate_prints_what_the_digraph_route_printed(capsys, text, steps, code):
    argv = ["factor", text] + ([] if steps is None else ["--budget", str(steps)])
    want = digraph_route(text, Budget() if steps is None else Budget(max_steps=steps))
    assert want[0] == code
    assert run(capsys, *argv) == want


def _cubic_graph_file(tmp_path):
    g = decode(parse_poly1("x^3 + 2*x^2 + 2*x + 1"))
    return write(tmp_path / "cubic.json",
                 bigraph_document(g, g.natural_labeling))


def test_factor_graph_file_golden(capsys, tmp_path):
    code, out, err = run(capsys, "factor", _cubic_graph_file(tmp_path))
    assert code == 0
    assert out == "(x + 1) * (x^2 + x + 1)\n"


def test_factor_graph_file_irreducible(capsys, tmp_path):
    g = decode(parse_poly1("x^3 + 1"))
    path = write(tmp_path / "g.json", bigraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", path)
    assert code == 1
    assert out == "irreducible under this labeling\n"


def decoded_route(g, labels, budget, empty):
    """(exit code, stdout, stderr) of factor on a file of g when it went by
    way of factor_graph: each decoded half encoded back under its natural
    labeling."""
    try:
        pairs = factor_graph(g, labels, budget)
    except BudgetExceededError as e:
        return 2, "", f"inconclusive: {e}; raise it with --budget\n"
    out = "".join(f"({render(encode(q, q.natural_labeling))}) * "
                  f"({render(encode(r, r.natural_labeling))})\n" for q, r in pairs)
    return (0, out, "") if pairs else (1, empty + "\n", "")


@pytest.mark.parametrize("directed", [False, True])
def test_factor_file_prints_what_the_decoded_route_printed(capsys, tmp_path, directed):
    """On random graphs and on products of two, which split, under budgets
    that do and do not suffice."""
    rng = random.Random(90 + directed)
    empty = "no bit-disjoint factor pairs" if directed else "irreducible under this labeling"
    codes = set()
    for k in range(16):
        g1, g2 = (wide_graph(rng, rng.randint(1, 4), rng.randint(1, 3), directed, 0.5)
                  for _ in range(2))
        if k % 2:
            g = core.poly_product(g1, core.compact_labeling(g1), g2,
                                  {v: len(g1.v_vertices) + i for i, v in enumerate(g2.v_vertices)})
            labels = g.natural_labeling
        else:
            g = g1
            labels = random_labeling(rng, g.v_vertices, 6)
        path = write(tmp_path / f"{k}.json", document_for(g, labels))
        for steps in (None, 0, 30):
            budget = Budget() if steps is None else Budget(max_steps=steps)
            argv = ["factor", path] + ([] if steps is None else ["--budget", str(steps)])
            want = decoded_route(g, labels, budget, empty)
            assert run(capsys, *argv) == want, (k, steps)
            codes.add(want[0])
    assert codes == {0, 1, 2}


def test_factor_graph_file_with_thirty_thousand_pairs_is_quick(capsys, tmp_path):
    """8 u-vertices on 20 v-vertices, each pair an edge with probability 1/2:
    30,953 factor pairs, printed straight from the search."""
    rng = random.Random(1)
    us, vs = [f"u{i}" for i in range(8)], [f"v{j}" for j in range(20)]
    g = Bigraph(us, vs, [(u, v) for u in us for v in vs if rng.random() < 0.5])
    labels = core.compact_labeling(g)
    path = write(tmp_path / "g.json", document_for(g, labels))
    start = time.perf_counter()
    code, out, err = run(capsys, "factor", path)
    assert time.perf_counter() - start < 5
    want = factor_pairs(core.encode(g, labels))
    assert len(want) == 30_953
    assert (code, err) == (0, "")
    assert out == "".join(f"({render(q)}) * ({render(r)})\n" for q, r in want)


def test_factor_exhaustive_reducible(capsys, tmp_path):
    code, out, err = run(capsys, "factor", "--exhaustive-labels",
                         _cubic_graph_file(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("reducible over compact labelings; witness labeling")
    assert lines[1] == "(x + 1) * (x^2 + x + 1)"


def test_factor_exhaustive_irreducible(capsys, tmp_path):
    g = decode(parse_poly1("x^3 + 1"))
    path = write(tmp_path / "g.json", bigraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", "--exhaustive-labels", path)
    assert code == 1
    assert out == "irreducible over compact labelings\n"


def test_factor_exhaustive_needs_a_file(capsys):
    code, out, err = run(capsys, "factor", "--exhaustive-labels", "x^2 + 1")
    assert code == 3
    assert "needs a graph file" in err


def test_factor_digraph_file(capsys, tmp_path):
    g = decode_directed(parse_poly("x*y^2 + x + y^2 + 1"))
    path = write(tmp_path / "d.json", digraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", path)
    assert code == 0
    assert out == "(y^2 + 1) * (x + 1)\n"


def test_factor_exhaustive_on_a_digraph_file(capsys, tmp_path):
    """A bit-disjoint split is a partition of the v part, so one labeling
    answers for every compact labeling: the flag gives the undirected
    lines and exit codes."""
    g = decode_directed(parse_poly("x*y^2 + x + y^2 + 1"))
    path = write(tmp_path / "d.json", digraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", "--exhaustive-labels", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("reducible over compact labelings; witness labeling")
    assert lines[1:] == ["(y^2 + 1) * (x + 1)"]
    path = write(tmp_path / "r.json",
                 digraph_document(relay_graph(), {"v1": 0, "v2": 1}))
    code, out, err = run(capsys, "factor", "--exhaustive-labels", path)
    assert code == 1
    assert out == "irreducible over compact labelings\n"


def test_factor_digraph_file_with_an_isolated_v_vertex(capsys, tmp_path):
    """The encoding (x + 1)(y^2 + 1) splits, but no product of the decoded
    halves has the isolated v-vertex c, so the digraph does not."""
    g = DiBigraph(["e", "p", "q", "pq"], ["a", "b", "c"],
                  [("a", "p"), ("q", "b"), ("a", "pq"), ("pq", "b")])
    labels = {"a": 0, "b": 1, "c": 2}
    assert encode_directed(g, labels) == parse_poly("x*y^2 + x + y^2 + 1")
    path = write(tmp_path / "dp.json", digraph_document(g, labels))
    code, out, err = run(capsys, "factor", path)
    assert code == 1
    assert out == "no bit-disjoint factor pairs\n"


def test_factor_digraph_file_without_pairs(capsys, tmp_path):
    path = write(tmp_path / "r.json",
                 digraph_document(relay_graph(), {"v1": 0, "v2": 1}))
    code, out, err = run(capsys, "factor", path)
    assert code == 1
    assert out == "no bit-disjoint factor pairs\n"


# ---------------------------------------------------------------------------
# canon / iso.

def test_canon_on_a_file_and_a_string_agree(capsys, hub_file):
    code, out, err = run(capsys, "canon", hub_file)
    assert (code, out) == (0, "x^7 + x^3 + 1\n")
    code, out, err = run(capsys, "canon", "x^7 + x^5 + 1")
    assert (code, out) == (0, "x^7 + x^3 + 1\n")


def test_canon_directed_file_matches_the_library(capsys, tmp_path):
    path = write(tmp_path / "r.json", digraph_document(relay_graph()))
    code, out, err = run(capsys, "canon", path)
    assert code == 0
    assert out == render(canonical_poly_directed(relay_graph())) + "\n"


def test_canon_net_files_differing_in_ids_and_order_agree(capsys, tmp_path):
    """A net file's canonical form holds the idle event's unit."""
    first = {"conditions": ["p", "q", "r"], "events": [
        {"id": "e1", "pre": ["p"], "post": ["q"]},
        {"id": "e2", "pre": ["q"], "post": ["r"]},
        {"id": "e3", "pre": ["p", "r"]},
    ]}
    second = {"conditions": ["c", "b", "a"], "events": [
        {"id": "z", "pre": ["c", "a"]},
        {"id": "y", "pre": ["b"], "post": ["a"]},
        {"id": "x", "pre": ["c"], "post": ["b"]},
    ]}
    for name, doc in (("first.json", first), ("second.json", second)):
        code, out, err = run(capsys, "canon", write(tmp_path / name, doc))
        assert (code, out) == (0, "x^4*y + x^3 + x^2*y^4 + 1\n")


def test_iso_witness_json(capsys, tmp_path, hub_file):
    twin = Bigraph(
        ["B", "C", "A"],
        ["q", "r", "p"],
        [("A", "p"), ("A", "q"), ("A", "r"), ("C", "p"), ("C", "r")],
    )
    f2 = write(tmp_path / "twin.json", bigraph_document(twin))
    code, out, err = run(capsys, "iso", hub_file, f2)
    assert code == 0
    witness = json.loads(out)
    u_map, v_map = witness["u_map"], witness["v_map"]
    g1, g2 = hub_graph(), twin
    assert sorted(u_map) == sorted(g1.u_vertices)
    assert sorted(u_map.values()) == sorted(g2.u_vertices)
    assert {(u_map[u], v_map[v]) for u, v in g1.edges} == set(g2.edges)


def test_iso_negative(capsys, tmp_path):
    f1 = write(tmp_path / "c8.json", bigraph_document(eight_cycle()))
    f2 = write(tmp_path / "c44.json", bigraph_document(two_squares()))
    code, out, err = run(capsys, "iso", f1, f2)
    assert code == 1
    assert out == "not isomorphic\n"


@pytest.mark.parametrize("command, search, message", [
    ("canon", "canonical_poly",
     "the canonical form of 3 v-vertices used up the budget of 1 steps"
     " in building states (7 asked for)"),
    ("iso", "is_isomorphic",
     "the isomorphism search on 3 v-vertices used up the budget of 1 steps"
     " in color refinement (23 asked for)"),
])
def test_canon_and_iso_out_of_budget_are_inconclusive(
    capsys, monkeypatch, hub_file, command, search, message
):
    """Neither subcommand takes --budget, so the line names no flag."""
    small = functools.partial(getattr(core, search), budget=Budget(max_steps=1))
    monkeypatch.setattr(cli, search, small)
    files = (hub_file,) * (1 if command == "canon" else 2)
    code, out, err = run(capsys, command, *files)
    assert (code, out, err) == (2, "", f"inconclusive: {message}\n")


def test_canon_and_iso_answer_past_the_recursion_limit(capsys, tmp_path):
    """A star on 2,000 leaves with a pendant u-vertex on the last one."""
    n = 2000
    vs = [f"v{i}" for i in range(n)]
    g = Bigraph(["u", "w"], vs, [("u", v) for v in vs] + [("w", vs[-1])])
    path = write(tmp_path / "star.json", bigraph_document(g))
    code, out, err = run(capsys, "canon", path)
    assert (code, out) == (0, f"x^{(1 << n) - 1} + x\n")
    code, out, err = run(capsys, "iso", path, path)
    assert code == 0
    witness = json.loads(out)
    u_map, v_map = witness["u_map"], witness["v_map"]
    assert {(u_map[u], v_map[v]) for u, v in g.edges} == set(g.edges)


def test_iso_mixed_kinds_is_an_input_error(capsys, hub_file, branch_file):
    code, out, err = run(capsys, "iso", hub_file, branch_file)
    assert code == 3
    assert "mixed kinds" in err


def test_iso_nets(capsys, tmp_path, branch_file):
    twin = PetriNet(
        ["k1", "k0"],
        ["z", "y", "w"],
        pre={"w": ["k0"], "y": ["k0"]},
        post={"y": ["k1"], "z": ["k1"]},
    )
    f2 = write(tmp_path / "twin.json", net_document(twin))
    code, out, err = run(capsys, "iso", branch_file, f2)
    assert code == 0
    witness = json.loads(out)
    e_map, c_map = witness["event_map"], witness["condition_map"]
    n1 = branching_net()
    for e in n1.events:
        assert {c_map[b] for b in n1.pre(e)} == set(twin.pre(e_map[e]))
        assert {c_map[b] for b in n1.post(e)} == set(twin.post(e_map[e]))


# ---------------------------------------------------------------------------
# net commands.

def test_net_encode_golden(capsys, branch_file):
    code, out, err = run(capsys, "net-encode", branch_file)
    assert (code, out, err) == (0, "x*y^2 + x + y^2 + 1\n", "")


def test_net_encode_without_labels_notes_the_default(capsys, tmp_path):
    path = write(tmp_path / "n.json", net_document(branching_net()))
    code, out, err = run(capsys, "net-encode", path)
    assert (code, out) == (0, "x*y^2 + x + y^2 + 1\n")
    assert "no labels given" in err


def test_net_decode_round_trip(capsys, tmp_path):
    target = str(tmp_path / "n.json")
    code, out, err = run(capsys, "net-decode", "x*y^2 + x + y^2 + 1", "-o", target)
    assert (code, err) == (0, "")
    code, out, err = run(capsys, "net-encode", target)
    assert (code, out, err) == (0, "x*y^2 + x + y^2 + 1\n", "")


def test_net_product_counts(capsys, tmp_path, branch_file):
    target = str(tmp_path / "prod.json")
    code, out, err = run(capsys, "net-product", branch_file, branch_file, "-o", target)
    assert code == 0
    doc = fileio.load_document(target)
    assert doc.kind == "net"
    # Pointed product: each side idles or both move, minus the all-idle slot.
    assert len(doc.obj.events) == 15
    assert len(doc.obj.conditions) == 4


def test_net_decompose_golden(capsys, tmp_path, branch_file):
    prefix = str(tmp_path / "fac")
    code, out, err = run(capsys, "net-decompose", branch_file, "--out-prefix", prefix)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x*y^2 + x + y^2 + 1 = (y^2 + 1) * (x + 1)"
    cert = json.loads("\n".join(lines[1:]))
    assert set(cert) == {"event_map", "condition_map"}
    assert "wrote" in err
    code, out, err = run(capsys, "net-encode", prefix + ".factor1.json")
    assert (code, out) == (0, "y^2 + 1\n")
    code, out, err = run(capsys, "net-encode", prefix + ".factor2.json")
    assert (code, out) == (0, "x + 1\n")


def test_net_decompose_default_prefix(capsys, tmp_path, branch_file):
    assert run(capsys, "net-decompose", branch_file)[0] == 0
    assert (tmp_path / "branch.factor1.json").exists()
    assert (tmp_path / "branch.factor2.json").exists()


def test_net_decompose_negative(capsys, tmp_path):
    path = write(tmp_path / "cycle.json",
                 net_document(cycle_net(), {f"b{i}": i for i in range(6)}))
    code, out, err = run(capsys, "net-decompose", path)
    assert code == 1
    assert out == "no decomposition under this labeling\n"


def assert_certificate(lines, net, path):
    """The certificate after the split lines maps net_product of the first
    split's halves onto the net in the file: every event's pre and post sets
    land on its image's."""
    cert = json.loads("\n".join(lines))
    first, second = decompose(net, compact_net_labeling(net))[0]
    prod = net_product(first.net, second.net)
    names = fileio.string_ids(list(prod.events) + list(prod.conditions))
    given = fileio.load_document(path).obj
    e_map = {e: cert["event_map"][names[e]] for e in prod.events}
    c_map = {b: cert["condition_map"][names[b]] for b in prod.conditions}
    assert sorted(e_map.values()) == sorted(given.events)
    assert sorted(c_map.values()) == sorted(given.conditions)
    for e in prod.events:
        assert {c_map[b] for b in prod.pre(e)} == set(given.pre(e_map[e]))
        assert {c_map[b] for b in prod.post(e)} == set(given.post(e_map[e]))


def test_net_decompose_certificate_past_the_isomorphism_guard(capsys, tmp_path):
    """14 conditions: the certificate comes from the construction, and each
    product event's pre and post sets map onto its image's."""
    one = PetriNet(["c0", "c1"], ["e"], pre={"e": ["c0"]}, post={"e": ["c1"]})
    net = one
    for _ in range(6):
        net = net_product(net, one)
    doc = net_document(net)
    labels = {b: i for i, b in enumerate(doc["conditions"])}
    path = write(tmp_path / "chain.json", {**doc, "labels": labels})
    code, out, err = run(capsys, "net-decompose", path)
    assert code == 0
    lines = out.splitlines()
    assert all(" = (" in line for line in lines[:63])
    assert_certificate(lines[63:], net, path)


def test_net_decompose_three_eight_condition_prime_nets(capsys, tmp_path):
    net = three_prime_nets()
    doc = net_document(net)
    labels = {b: i for i, b in enumerate(doc["conditions"])}
    path = write(tmp_path / "three.json", {**doc, "labels": labels})
    code, out, err = run(capsys, "net-decompose", path)
    assert code == 0
    lines = out.splitlines()
    assert all(" = (" in line for line in lines[:3])
    assert_certificate(lines[3:], net, path)


def test_negative_budget_is_an_input_error(capsys):
    code, out, err = run(capsys, "factor", "x^2 + x", "--budget", "-5")
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and "-5" in err


def test_net_decompose_negative_budget_is_one_error_line(capsys, tmp_path):
    """The budget is checked before the file is read, so an unlabeled file
    adds no note."""
    path = write(tmp_path / "n.json", net_document(branching_net()))
    code, out, err = run(capsys, "net-decompose", path, "--budget", "-5")
    assert (code, out) == (3, "")
    assert err == "error: max_steps must be a natural number, not -5\n"
    assert not list(tmp_path.glob("*.factor*"))


def test_net_decompose_budget_zero_is_inconclusive(capsys, branch_file):
    code, out, err = run(capsys, "net-decompose", branch_file, "--budget", "0")
    assert code == 2
    assert err.startswith("inconclusive:")


def test_inconclusive_says_what_was_used_and_how_to_raise_it(capsys, branch_file):
    code, out, err = run(capsys, "factor", "--budget", "10", "x^5 + x^4")
    assert (code, out) == (2, "")
    assert err == (
        "inconclusive: factoring 2 terms of degree 5 used up the budget of 10 steps"
        " in emitting the factors (12 asked for); raise it with --budget\n"
    )
    code, out, err = run(capsys, "net-decompose", branch_file, "--budget", "0")
    assert code == 2
    assert err.startswith("inconclusive:")
    assert err.endswith(" asked for); raise it with --budget\n")


@pytest.mark.parametrize("allowance", [[], ["--budget", "10000000"]])
def test_factor_runs_on_the_default_allowance_of_ten_million_steps(capsys, allowance):
    """Emitting the two factors of x^999999999 * (x + 1) asks for more than
    the default allowance, and the message names it."""
    code, out, err = run(capsys, "factor", "x^1000000000 + x^999999999", *allowance)
    assert (code, out) == (2, "")
    assert err == (
        "inconclusive: factoring 2 terms of degree 1000000000 used up the budget of"
        " 10000000 steps in emitting the factors (2999999997 asked for); raise it with"
        " --budget\n"
    )


@pytest.mark.parametrize(
    "arg", ["x^99999999999999999999", "2*x^99999999999999999999", "x^99999999999999999999*y"]
)
def test_factor_on_a_huge_exponent_is_inconclusive(capsys, arg):
    code, out, err = run(capsys, "factor", arg)
    assert code == 2
    assert err.startswith("inconclusive:") and err.count("\n") == 1


def test_factor_on_a_graph_file_with_a_huge_label_is_inconclusive(capsys, tmp_path):
    """One edge on v label 70 encodes to x^(2^70)."""
    g = Bigraph(["a"], ["b"], [("a", "b")])
    path = write(tmp_path / "g.json", bigraph_document(g, {"b": 70}))
    code, out, err = run(capsys, "factor", path)
    assert (code, out) == (2, "")
    assert err.startswith("inconclusive:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# dot / errors / entry point.

def test_parser_reuse_leaks_nothing_between_calls(capsys, tmp_path):
    """main builds its parser once per process, so each call must answer as
    it would first, whatever ran before it: forward and reversed, every argv
    gives the same exit code, stdout, stderr and written file."""
    target = tmp_path / "d.json"
    calls = [
        ["decode", "--directed", "x^3 + 2*x + 1"],
        ["decode", "x^3 + 2*x + 1"],
        ["factor", "--budget", "1", "x^2 + 2*x + 1"],
        ["factor", "x^2 + 2*x + 1"],
        ["decode", "-o", str(target), "2*x^5 + x^3"],
        ["decode", "2*x^5 + x^3"],
        ["canon", "x^3 + x"],
        ["decode"],  # usage error: no polynomial
        ["factor", "x^3 + 1"],
    ]

    def call(argv):
        target.unlink(missing_ok=True)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err, target.read_text() if target.exists() else None

    forward = [call(argv) for argv in calls]
    backward = [call(argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    codes = [got[0] for got in forward]
    assert codes == [0, 0, 2, 0, 0, 0, 0, 3, 1]
    assert forward[0][1] != forward[1][1]
    assert forward[4][1:] == ("", "", forward[5][1])


def test_dot_runs_on_graphs_and_nets(capsys, hub_file, branch_file):
    code, out, err = run(capsys, "dot", hub_file)
    assert code == 0
    assert 'label="v1=0"' in out
    code, out, err = run(capsys, "dot", branch_file)
    assert code == 0
    assert "->" in out


def test_dot_with_an_unlabeled_v_vertex_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps(
        {"u": ["a"], "v": ["x", "y"], "edges": [["a", "x"]], "labels": {"x": 0}}
    ))
    want = "error: unlabeled v-part ids: ['y']\n"
    for command in ("dot", "encode"):
        assert run(capsys, command, str(path)) == (3, "", want)


def test_error_text_stays_short_for_thousands_of_ids(capsys, tmp_path):
    ids = [f"n{i}" for i in range(3000)]
    both = write(tmp_path / "both.json", {"u": ids, "v": ids, "edges": []})
    code, out, err = run(capsys, "encode", both)
    assert (code, out) == (3, "")
    assert "ids appear in both parts" in err and "(3000 in all)" in err
    assert len(err) < 500
    net = write(tmp_path / "net.json", {
        "conditions": ["c"], "events": [{"id": "e", "pre": ids, "post": []}]
    })
    code, out, err = run(capsys, "net-encode", net)
    assert (code, out) == (3, "")
    assert "non-conditions" in err and "(3000 in all)" in err
    assert len(err) < 500
    graph = write(tmp_path / "graph.json", {
        "u": ["a"], "v": ["x"], "edges": [["a", n] for n in ids]
    })
    arcs = [{"u": "a", "v": n, "dir": way} for n in ids for way in ("u_to_v", "v_to_u")]
    digraph = write(tmp_path / "digraph.json", {"u": ["a"], "v": ["x"], "edges": arcs})
    for path, slot in ((graph, "neighborhood"), (digraph, "pre set")):
        code, out, err = run(capsys, "encode", path)
        assert (code, out) == (3, "")
        assert f"{slot} of 'a' mentions non-v-part ids" in err and "(3000 in all)" in err
        assert len(err) < 500


def test_a_directed_edge_against_its_dir_is_an_input_error(capsys, tmp_path):
    """A directed edge whose "u" is a v-id and whose "v" is a u-id used to
    be read as an arc against its dir; it is bad input, exit 3."""
    path = write(tmp_path / "reversed.json", {
        "u": ["a"], "v": ["x"], "edges": [{"u": "x", "v": "a", "dir": "u_to_v"}]
    })
    code, out, err = run(capsys, "encode", path)
    assert (code, out) == (3, "")
    assert err == (
        f"error: {path}: edge {{'dir': 'u_to_v', 'u': 'x', 'v': 'a'}} "
        "must join a u-part id to a v-part id\n"
    )


BIG = list(range(100_000))
LONG = "x" * 100_000
DEEP = functools.reduce(lambda inner, _: [inner] * 7, range(4), "x" * 40)  # 2,401 leaves


@pytest.mark.parametrize("argv, doc", [
    (["encode"], {"u": [], "v": [], "edges": [BIG]}),
    (["encode"], {"u": [], "v": [], "edges": [DEEP]}),
    (["encode"], {"u": [], "v": ["b"], "labels": {"b": BIG}}),
    (["net-encode"], {"conditions": [], "events": [BIG]}),
    (["encode"], {"u": ["a"], "v": ["b"], "edges": [{"u": "a", "v": "b", "dir": LONG}]}),
    (["encode"], {"u": [], "v": ["b"], "labels": {LONG: 0}}),
    (["encode"], {"u": [LONG + " "], "v": []}),
    (["encode"], {"u": [BIG], "v": []}),
    (["encode"], {"u": ["a"], "v": ["b"], "edges": [["a", LONG]]}),
    (["encode"], {"u": ["a"], "v": ["b"], "edges": [{"u": "a", "v": LONG, "dir": "u_to_v"}]}),
    (["encode"], {"u": [LONG], "v": [LONG]}),
    (["encode"], {"u": ["a"], "v": [LONG], "edges": [["a", LONG]], "labels": {}}),
    (["encode"], {"u": ["a"], "v": [LONG, "b"], "edges": [["a", LONG], ["a", "b"]],
                  "labels": {LONG: 0, "b": 0}}),
    (["net-encode"], {"conditions": ["c"], "events": [{"id": "e", "pre": [LONG]}]}),
    (["net-encode"], {"conditions": [], "events": [{"id": LONG}, {"id": LONG}]}),
    (["net-encode"], {"conditions": [], "events": [{"id": LONG, "pre": 3}]}),
    (["decode", "x " + "9" * 100_000], None),
    # unhashable ends and members are bad ids, never an uncaught TypeError
    (["encode"], {"u": ["a"], "v": ["b"], "edges": [[["a"], "b"]]}),
    (["encode"], {"u": ["a"], "v": ["b"], "edges": [["a", ["b"]]]}),
    (["encode"], {"u": ["a"], "v": ["b"], "edges": [{"u": {}, "v": "b", "dir": "u_to_v"}]}),
    (["net-encode"], {"conditions": ["c"], "events": [{"id": "e", "pre": [["c"]]}]}),
])
def test_error_text_stays_short_for_long_values(capsys, tmp_path, argv, doc):
    """Rejected values are quoted abbreviated, however long they are."""
    if doc is not None:
        argv = argv + [write(tmp_path / "long.json", doc)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 300


@pytest.mark.parametrize("command", ["encode", "factor", "product"])
def test_a_label_too_large_to_encode_is_an_input_error(capsys, tmp_path, command):
    """A label of 2**70 cannot size the byte buffer its exponent is packed
    into: that is bad input, exit 3 with one short line, and never exit 1,
    which would read as a certified negative answer."""
    doc = {"u": ["a"], "v": ["p"], "edges": [["a", "p"]], "labels": {"p": 2**70}}
    path = write(tmp_path / "huge.json", doc)
    code, out, err = run(capsys, command, *[path] * (2 if command == "product" else 1))
    assert (code, out) == (3, "")
    assert err == "error: label of v-part id 'p' is too large to encode: a 22-digit number\n"
    g = fileio.load_document(path)
    for call in (
        lambda: encode(g.obj, g.labels),
        lambda: factor_graph(g.obj, g.labels),
        lambda: direct_product(g.obj, g.labels, g.obj, g.labels),
    ):
        with pytest.raises(LabelingError, match="too large to encode"):
            call()


@pytest.mark.parametrize("argv", [
    ["factor", "x^2 + 1", "--budget", LONG],
    ["factor", "x^2 + 1", "--budget", "9" * 5000],
    ["factor", "x^2 + 1", "--budget", "-" + "9" * 4000],
    ["net-decompose", "n.json", "--budget", LONG],
])
def test_budget_error_text_stays_short(capsys, argv):
    """A --budget that is no int is a usage error, a negative one an input
    error; either way the value is quoted abbreviated."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "error: max_steps" in err or "error: argument --budget: invalid int value" in err
    assert all(len(line.encode()) < 300 for line in err.splitlines())


def test_budget_that_is_no_int_names_the_value(capsys):
    with pytest.raises(SystemExit) as info:
        main(["factor", "x^2 + 1", "--budget", "abc"])
    assert info.value.code == 3
    assert capsys.readouterr().err.endswith(
        "error: argument --budget: invalid int value: 'abc'\n")


def test_missing_file_is_an_input_error(capsys, tmp_path):
    code, out, err = run(capsys, "encode", str(tmp_path / "nope.json"))
    assert code == 3
    assert err.startswith("error:")


def test_invalid_json_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, out, err = run(capsys, "encode", str(path))
    assert code == 3
    assert "bad.json" in err


def test_unreadable_json_is_one_error_line(capsys, tmp_path):
    """A file nested past the recursion limit or holding a label of 5,000
    digits exits 3 with one line that names it, in every file subcommand."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    digits = tmp_path / "digits.json"
    digits.write_text('{"u": [], "v": ["b"], "labels": {"b": ' + "9" * 5000 + "}}")
    for path in map(str, (deep, digits)):
        for argv in (["encode", path], ["net-encode", path], ["iso", path, path],
                     ["dot", path], ["product", path, path], ["net-decompose", path],
                     ["factor", path], ["canon", path]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, ""), argv
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, argv


def test_bad_polynomial_is_an_input_error(capsys):
    code, out, err = run(capsys, "decode", "x +* 2")
    assert code == 3
    assert err.startswith("error:")
    # A superscript digit is a stray character, not a number int() refuses.
    assert run(capsys, "factor", "x^\u00b2") == (
        3, "", "error: expected exponent, found '\u00b2' (column 3)\n")


def test_usage_errors_exit_3(capsys, tmp_path):
    """product and sum take the kind from their files and have no --directed."""
    f = write(tmp_path / "r.json", digraph_document(relay_graph(), {"v1": 0, "v2": 1}))
    for argv in ([], ["bogus"], ["encode"], ["product", "--directed", f, f],
                 ["sum", "--directed", f, f]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 3
        capsys.readouterr()


def run_module(module, *argv):
    # The child imports the package under test, wherever pytest found it.
    here = str(Path(bigraphpoly.__file__).parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", module, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point(hub_file):
    proc = run_module("bigraphpoly.cli", "encode", hub_file)
    assert proc.returncode == 0
    assert proc.stdout == "x^7 + x^5 + 1\n"


RUNTIME_CHECK = """
import json, sys
from bigraphpoly import cli
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] in
                                ("sympy", "networkx"))]))
"""


def test_runtime_imports_only_the_standard_library(tmp_path, hub_file, branch_file):
    """sympy and networkx are test oracles: no subcommand loads them."""
    prefix = str(tmp_path / "split")
    argvs = [
        ["encode", hub_file], ["decode", "x^3 + x"], ["product", hub_file, hub_file],
        ["sum", hub_file, hub_file], ["factor", hub_file], ["canon", hub_file],
        ["iso", hub_file, hub_file], ["dot", hub_file], ["net-encode", branch_file],
        ["net-decode", "x*y + 1"], ["net-product", branch_file, branch_file],
        ["net-decompose", branch_file, "--out-prefix", prefix],
    ]
    here = str(Path(bigraphpoly.__file__).parents[1])
    path = os.pathsep.join(filter(None, [here, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_CHECK, json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert len({argv[0] for argv in argvs}) == 12
    assert codes == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
    assert loaded == []


def test_package_entry_point(hub_file):
    proc = run_module("bigraphpoly", "encode", hub_file)
    assert (proc.returncode, proc.stdout) == (0, "x^7 + x^5 + 1\n")
    proc = run_module("bigraphpoly", "bogus")
    assert proc.returncode == 3
