"""tools/scaling_rows.py runs each named row in a subprocess and prints its
wall time, peak RSS and answer size on one line, and rejects an unknown
row name; its product rows lie on the sides of mul's gate that their
names say, its division row reads back the quotient, its binomial row
lists the pairs of (1 + x)^12, its canonical rows answer within their
budget, the 16-fold chain's irreducibility row answers inconclusive, the
wide chain, sparse product, star, sweep and directed product rows answer
on smaller sizes of their inputs, and a row that runs out of its budget
prints budget as its answer."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import bigraphpoly
from bigraphpoly import BudgetExceededError, encode, mul, poly, tau_poly

TOOL = Path(__file__).parents[1] / "tools" / "scaling_rows.py"


def test_a_row_prints_time_peak_and_size():
    out = subprocess.run(
        [sys.executable, str(TOOL), "bit_disjoint_factor sparse64x3"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out[:2] == ["bit_disjoint_factor", "sparse64x3"]
    assert out[3] == "s" and out[5] == "MB" and out[6:] == ["0", "pairs"]
    assert float(out[2]) >= 0 and float(out[4]) > 0


def test_an_unknown_row_is_rejected():
    run = subprocess.run([sys.executable, str(TOOL), "decompose chain99"],
                         capture_output=True, text=True)
    assert run.returncode != 0 and "unknown row" in run.stderr


def test_product_and_isomorphism_rows_print_their_answers():
    rows = ["mul sparse64x20", "mul dense900x12", "is_isomorphic cycle64",
            "is_isomorphic product100", "divide_exact dense9250x16"]
    out = subprocess.run([sys.executable, str(TOOL), *rows],
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert [line.split()[:2] for line in out] == [row.split() for row in rows]
    for line in out[:2]:
        assert line.split()[-1] == "terms" and int(line.split()[-2]) > 1000
    assert out[2].split()[-2:] == ["not", "isomorphic"]
    assert out[3].split()[-2:] == ["MB", "isomorphic"]
    assert out[4].split()[-2:] == ["8716", "terms"]


def test_the_canonical_row_answers_within_its_budget():
    """The canonical form of the 10^4-u product has its 123 terms; a walk
    that charged u-vertices ran out of its budget here."""
    out = subprocess.run([sys.executable, str(TOOL), "canonical_poly product100"],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[:2] == ["canonical_poly", "product100"] and out[6:] == ["123", "terms"]


@pytest.mark.parametrize("row, answer", [
    ("is_irreducible chain16", ["inconclusive"]),
    ("canonical_poly cycle9", ["9", "terms"]),
    ("canonical_poly cycle10", ["10", "terms"]),
])
def test_the_chain16_and_cycle_rows_print_their_answers(row, answer):
    """The 16-fold chain runs out of Budget() in charging the emission of
    its pairs, so it answers inconclusive; the canonical form of an
    N-cycle has one term per u-vertex, as no two of them share their
    slots."""
    out = subprocess.run([sys.executable, str(TOOL), row],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[:2] == row.split() and out[6:] == answer


def test_the_wide_chain_row_prints_its_pairs():
    """The 4-fold chain of c0 -> c1 splits 7 ways under labels i * 10**6 as
    under compact ones: a split is a partition of the conditions."""
    out = subprocess.run([sys.executable, str(TOOL), "decompose chain4wide"],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[:2] == ["decompose", "chain4wide"] and out[6:] == ["7", "pairs"]


def test_the_binomial_row_prints_its_pairs():
    """(1 + x)^12 splits 6 ways: (1 + x)^k (1 + x)^(12 - k), for k = 1 to 6."""
    out = subprocess.run([sys.executable, str(TOOL), "factor_pairs binomial12"],
                         capture_output=True, text=True, check=True).stdout.split()
    assert out[:2] == ["factor_pairs", "binomial12"] and out[6:] == ["6", "pairs"]


def load_tool():
    spec = importlib.util.spec_from_file_location("scaling_rows", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_row_that_runs_out_of_budget_prints_budget(monkeypatch, capsys):
    def is_isomorphic(g1, g2):
        raise BudgetExceededError("the isomorphism search used up the budget")

    monkeypatch.setattr(bigraphpoly, "is_isomorphic", is_isomorphic)
    load_tool()._run("is_isomorphic product100")
    out = capsys.readouterr().out.split()
    assert out[:2] == ["is_isomorphic", "product100"] and out[6:] == ["budget"]


def test_the_product_rows_are_on_their_sides_of_the_gate():
    """The dense rows pack and the sparse rows keep the pair loop; 300x14
    and 300x15 lie on either side of the gate's limit."""
    tool = load_tool()
    rows = [name.split()[1] for name in tool._ROWS if name.startswith("mul ")]
    for name in rows:
        packed = name.startswith("dense")
        p, q = tool._input(name)
        assert (poly._packed(p, q) is not None) == packed, name


@pytest.mark.parametrize("row, full, answer", [
    ("decompose chain6wide", "chain8wide", ["31", "pairs"]),
    ("bit_disjoint_factor sparseprod16x4", "sparseprod", ["1", "pairs"]),
])
def test_the_wide_rows_print_their_answers_on_smaller_sizes(capsys, row, full, answer):
    """Smaller sizes of the chain8wide and sparseprod inputs, run in this
    process: the 6-fold chain under labels i * 10**6 splits 2**5 - 1 ways,
    as under compact ones, and the product of two sparse primes once."""
    tool = load_tool()
    assert f"{row.split()[0]} {full}" in tool._ROWS
    tool._run(row)
    out = capsys.readouterr().out.split()
    assert out[:2] == row.split() and out[6:] == answer


@pytest.mark.parametrize("row, full, answer", [
    ("graph_factor_pairs star10", "star18", ["511", "pairs"]),
    ("is_irreducible sweep6", "sweep8", ["irreducible"]),
    ("poly_product digraph10", "digraph100", ["90", "terms"]),
])
def test_the_star_sweep_and_directed_product_rows_print_their_answers(capsys, row, full, answer):
    """Smaller sizes of the star18, sweep8 and digraph100 inputs, run in
    this process: the star on 10 v-vertices splits its v part 2**9 - 1
    ways, no labeling of the six-v sweep input splits it, and the directed
    product has one term per term of the product of the encodings."""
    tool = load_tool()
    call, name = row.split()
    assert f"{call} {full}" in tool._ROWS
    tool._run(row)
    out = capsys.readouterr().out.split()
    assert out[:2] == row.split() and out[6:] == answer
    if call == "poly_product":
        g1, l1, g2, l2 = tool._input(name, call)
        assert len(mul(encode(g1, l1), encode(g2, l2)).terms) == 90


def test_the_sparse_product_row_has_its_terms_and_bits():
    """The input of bit_disjoint_factor sparseprod: 512 terms on 216
    support bits, those of the first factor below 10**6."""
    (p,) = load_tool()._input("sparseprod")
    bits = tau_poly(p)
    assert len(p.terms) == 512 and len(bits) == 216
    assert sum(b < 10**6 for b in bits) == 192


def test_the_directed_product_row_keeps_the_pair_loop():
    """The two 100-u digraphs of poly_product digraph100 are sparse enough
    in the packed stride that mul's gate keeps the pair loop."""
    g1, l1, g2, l2 = load_tool()._input("digraph100", "poly_product")
    assert poly._packed(encode(g1, l1), encode(g2, l2)) is None
