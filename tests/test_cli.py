"""Command line behavior: printed output, exit codes, and file handling."""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bigraphpoly
from bigraphpoly import (
    Bigraph,
    Budget,
    DiBigraph,
    PetriNet,
    canonical_poly_directed,
    compact_net_labeling,
    decode,
    decode_directed,
    decompose,
    encode_directed,
    mul,
    net_product,
    parse_poly1,
    render,
)
from bigraphpoly import cli, core, fileio
from bigraphpoly.cli import main
from bigraphpoly.poly import parse_poly

from helpers import three_prime_nets


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
    return write(tmp_path / "hub.json", fileio.bigraph_document(hub_graph(), HUB_LABELS))


@pytest.fixture
def branch_file(tmp_path):
    return write(tmp_path / "branch.json",
                 fileio.net_document(branching_net(), BRANCH_LABELS))


# ---------------------------------------------------------------------------
# encode / decode.

def test_encode_golden(capsys, hub_file):
    code, out, err = run(capsys, "encode", hub_file)
    assert code == 0
    assert out == "x^7 + x^5 + 1\n"
    assert err == ""


def test_encode_without_labels_notes_the_default(capsys, tmp_path):
    path = write(tmp_path / "hub.json", fileio.bigraph_document(hub_graph()))
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
               fileio.bigraph_document(path_piece(), {"v11": 0, "v12": 1}))
    f2 = write(tmp_path / "p2.json",
               fileio.bigraph_document(fork_piece(), {"v21": 2, "v22": 3}))
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


def test_product_mixed_kinds_is_an_input_error(capsys, tmp_path, hub_file):
    d = write(tmp_path / "d.json", fileio.digraph_document(relay_graph()))
    code, out, err = run(capsys, "product", hub_file, d)
    assert code == 3
    assert "mixed graph kinds" in err


def test_product_directed_flag_requires_directed_files(capsys, tmp_path):
    f1, f2 = _piece_files(tmp_path)
    code, out, err = run(capsys, "product", "--directed", f1, f2)
    assert code == 3
    assert "error:" in err


def test_directed_product_matches_the_library(capsys, tmp_path):
    labels = {"v1": 0, "v2": 1}
    f = write(tmp_path / "r.json", fileio.digraph_document(relay_graph(), labels))
    target = str(tmp_path / "prod.json")
    assert run(capsys, "product", f, f, "-o", target)[0] == 0
    p = encode_directed(relay_graph(), labels)
    code, out, err = run(capsys, "encode", target)
    assert (code, out) == (0, render(mul(p, p)) + "\n")


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


def _cubic_graph_file(tmp_path):
    g = decode(parse_poly1("x^3 + 2*x^2 + 2*x + 1"))
    return write(tmp_path / "cubic.json",
                 fileio.bigraph_document(g, g.natural_labeling))


def test_factor_graph_file_golden(capsys, tmp_path):
    code, out, err = run(capsys, "factor", _cubic_graph_file(tmp_path))
    assert code == 0
    assert out == "(x + 1) * (x^2 + x + 1)\n"


def test_factor_graph_file_irreducible(capsys, tmp_path):
    g = decode(parse_poly1("x^3 + 1"))
    path = write(tmp_path / "g.json", fileio.bigraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", path)
    assert code == 1
    assert out == "irreducible under this labeling\n"


def test_factor_exhaustive_reducible(capsys, tmp_path):
    code, out, err = run(capsys, "factor", "--exhaustive-labels",
                         _cubic_graph_file(tmp_path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("reducible over compact labelings; witness labeling")
    assert lines[1] == "(x + 1) * (x^2 + x + 1)"


def test_factor_exhaustive_irreducible(capsys, tmp_path):
    g = decode(parse_poly1("x^3 + 1"))
    path = write(tmp_path / "g.json", fileio.bigraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", "--exhaustive-labels", path)
    assert code == 1
    assert out == "irreducible over compact labelings\n"


def test_factor_exhaustive_needs_a_file(capsys):
    code, out, err = run(capsys, "factor", "--exhaustive-labels", "x^2 + 1")
    assert code == 3
    assert "needs a graph file" in err


def test_factor_digraph_file(capsys, tmp_path):
    g = decode_directed(parse_poly("x*y^2 + x + y^2 + 1"))
    path = write(tmp_path / "d.json", fileio.digraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", path)
    assert code == 0
    assert out == "(y^2 + 1) * (x + 1)\n"


def test_factor_exhaustive_on_a_digraph_file(capsys, tmp_path):
    """A bit-disjoint split is a partition of the v part, so one labeling
    answers for every compact labeling: the flag gives the undirected
    lines and exit codes."""
    g = decode_directed(parse_poly("x*y^2 + x + y^2 + 1"))
    path = write(tmp_path / "d.json", fileio.digraph_document(g, g.natural_labeling))
    code, out, err = run(capsys, "factor", "--exhaustive-labels", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("reducible over compact labelings; witness labeling")
    assert lines[1:] == ["(y^2 + 1) * (x + 1)"]
    path = write(tmp_path / "r.json",
                 fileio.digraph_document(relay_graph(), {"v1": 0, "v2": 1}))
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
    path = write(tmp_path / "dp.json", fileio.digraph_document(g, labels))
    code, out, err = run(capsys, "factor", path)
    assert code == 1
    assert out == "no bit-disjoint factor pairs\n"


def test_factor_digraph_file_without_pairs(capsys, tmp_path):
    path = write(tmp_path / "r.json",
                 fileio.digraph_document(relay_graph(), {"v1": 0, "v2": 1}))
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
    path = write(tmp_path / "r.json", fileio.digraph_document(relay_graph()))
    code, out, err = run(capsys, "canon", path)
    assert code == 0
    assert out == render(canonical_poly_directed(relay_graph())) + "\n"


def test_iso_witness_json(capsys, tmp_path, hub_file):
    twin = Bigraph(
        ["B", "C", "A"],
        ["q", "r", "p"],
        [("A", "p"), ("A", "q"), ("A", "r"), ("C", "p"), ("C", "r")],
    )
    f2 = write(tmp_path / "twin.json", fileio.bigraph_document(twin))
    code, out, err = run(capsys, "iso", hub_file, f2)
    assert code == 0
    witness = json.loads(out)
    u_map, v_map = witness["u_map"], witness["v_map"]
    g1, g2 = hub_graph(), twin
    assert sorted(u_map) == sorted(g1.u_vertices)
    assert sorted(u_map.values()) == sorted(g2.u_vertices)
    assert {(u_map[u], v_map[v]) for u, v in g1.edges} == set(g2.edges)


def test_iso_negative(capsys, tmp_path):
    f1 = write(tmp_path / "c8.json", fileio.bigraph_document(eight_cycle()))
    f2 = write(tmp_path / "c44.json", fileio.bigraph_document(two_squares()))
    code, out, err = run(capsys, "iso", f1, f2)
    assert code == 1
    assert out == "not isomorphic\n"


@pytest.mark.parametrize("command, search, message", [
    ("canon", "canonical_poly",
     "the canonical form of 3 v-vertices used up the budget of 1 steps"
     " in building states (7 asked for)"),
    ("iso", "is_isomorphic",
     "the isomorphism search on 3 v-vertices used up the budget of 1 steps"
     " in color refinement (2 asked for)"),
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
    path = write(tmp_path / "star.json", fileio.bigraph_document(g))
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
    f2 = write(tmp_path / "twin.json", fileio.net_document(twin))
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
    path = write(tmp_path / "n.json", fileio.net_document(branching_net()))
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
                 fileio.net_document(cycle_net(), {f"b{i}": i for i in range(6)}))
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
    doc = fileio.net_document(net)
    labels = {b: i for i, b in enumerate(doc["conditions"])}
    path = write(tmp_path / "chain.json", {**doc, "labels": labels})
    code, out, err = run(capsys, "net-decompose", path)
    assert code == 0
    lines = out.splitlines()
    assert all(" = (" in line for line in lines[:63])
    assert_certificate(lines[63:], net, path)


def test_net_decompose_three_eight_condition_prime_nets(capsys, tmp_path):
    net = three_prime_nets()
    doc = fileio.net_document(net)
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


def test_bad_polynomial_is_an_input_error(capsys):
    code, out, err = run(capsys, "decode", "x +* 2")
    assert code == 3
    assert err.startswith("error:")


def test_usage_errors_exit_3(capsys):
    for argv in ([], ["bogus"], ["encode"]):
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


def test_package_entry_point(hub_file):
    proc = run_module("bigraphpoly", "encode", hub_file)
    assert (proc.returncode, proc.stdout) == (0, "x^7 + x^5 + 1\n")
    proc = run_module("bigraphpoly", "bogus")
    assert proc.returncode == 3
