"""The committed chi programs against the generator they come from.

``letfvol/chi_programs.jsonl`` holds, per correction order, chi_{n,m} as
polynomials in the Taylor-table entries and beta.  It must be exactly what
the generator gives today, and evaluating it for a table must give what
the generator's polynomials give for that table (``evaluate_Ln``):
exactly on Fraction tables, to 1e-12 of the largest chi coefficient on
float model tables.  Both return chi as {m: {tau_power: coeff}}.  The
runtime walks the programs of orders 1..N as one trie; each order's own
program, walked alone (``per_order_totals``), is its oracle, bit for bit.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letfvol.expansion import (
    CHI_PROGRAMS,
    MAX_ORDER,
    _chi_trie,
    _chi_totals,
    _chi_variables,
    chi_programs_text,
)
from test_expansion import RANDOM_TABLES, TABLE_KEYS, random_table, reduced_Ln
from test_opalgebra import MODEL_TABLES, cev_like_table, evaluate_Ln, full_table

ORDERS = range(1, MAX_ORDER + 1)


def test_committed_programs_are_the_regenerated_ones():
    # Text, not parsed lines: the header, separators and newlines count too.
    with open(CHI_PROGRAMS, encoding="utf-8", newline="") as fh:
        committed = fh.read()
    assert committed == chi_programs_text(), (
        f"{CHI_PROGRAMS} is stale; regenerate it with "
        "`PYTHONPATH=src python3 -m letfvol.expansion`"
    )


def file_programs():
    """The order-n lines of the committed file, parsed here, at index n - 1."""
    with open(CHI_PROGRAMS, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh.read().splitlines()[1:]]


def test_program_nodes_rebuild_every_product_of_the_file():
    # Walking a node's parent chain back to the empty product spells its
    # product, over _chi_variables(N); products that share a prefix share
    # its nodes, and the merged trie of orders 1..N lists them in preorder.
    # Each product of each order n <= N is there, with its variables named
    # in _chi_variables(N) and its terms' weights offset past orders < n.
    programs = file_programs()
    for N, term_count in zip(ORDERS, (4, 56, 524)):
        _, _, nodes, bounds = _chi_trie(N)
        assert len({(parent, var) for parent, var, _ in nodes}) == len(nodes)
        rebuilt = {}
        for k, (parent, _, terms) in enumerate(nodes, 1):
            assert parent < k
            mono, node = [], k
            while node:
                node, var, _ = nodes[node - 1]
                mono.append(var)
            if terms:
                rebuilt[tuple(reversed(mono))] = [list(term) for term in terms]
        assert list(rebuilt) == sorted(rebuilt)
        index = {entry: k for k, entry in enumerate(_chi_variables(N))}
        want = {}
        for n, program in enumerate(programs[:N], 1):
            assert bounds[n] - bounds[n - 1] == len(program["weights"])
            names = _chi_variables(n)
            for mono, terms in program["products"]:
                want.setdefault(tuple(index[names[var]] for var in mono), []).extend(
                    [w + bounds[n - 1], num, p] for w, num, p in terms)
        assert rebuilt == want
        assert sum(len(terms) for terms in rebuilt.values()) == term_count


def per_order_totals(table, n, beta):
    """Oracle: the order-n program of the file walked on its own, as the runtime once did: a
    trie of its products alone over _chi_variables(n), one multiply per node, a zero product
    skipping its terms; weight w is totals[w] / den."""
    program = file_programs()[n - 1]
    children, nodes = {}, []
    for mono, terms in program["products"]:
        node = 0
        for var in mono:
            if (node, var) not in children:
                nodes.append((node, var, []))
                children[node, var] = len(nodes)
            node = children[node, var]
        nodes[node - 1][2].extend(terms)
    values = [table.entries[name].get((i, j), 0) for name, i, j in _chi_variables(n)]
    beta_powers = [beta**p for p in range(1 + max(p for _, terms in program["products"] for *_, p in terms))]
    products, totals = [1], [0] * len(program["weights"])
    for parent, var, terms in nodes:
        products.append(products[parent] * values[var])
        if products[-1]:
            for w, num, p in terms:
                totals[w] += num * beta_powers[p] * products[-1]
    return totals


@settings(max_examples=60, deadline=None)
@given(zero_families=st.sets(st.sampled_from("abcf")), **RANDOM_TABLES)
def test_walk_matches_the_per_order_oracle(zero_families, a00, values, beta):
    # The merged walk sums the same terms in the same order, so each order's
    # slice is the oracle's walk bit for bit, at every N, on float tables
    # whose zeros come entry by entry and whole families at a time (a00 stays).
    table = random_table(a00, [0.0 if name in zero_families else value
                               for (name, _), value in zip(TABLE_KEYS, values)])
    for N in ORDERS:
        slices = _chi_totals(table, N, beta)
        assert len(slices) == N
        for n, got in enumerate(slices, 1):
            assert got == per_order_totals(table, n, beta), (N, n)


@pytest.mark.parametrize("beta", [-2, Fraction(3, 2)])
@pytest.mark.parametrize("make_table", [full_table, cev_like_table])
def test_programs_equal_the_algebra_on_fraction_tables(make_table, beta):
    table = make_table(extent=MAX_ORDER)
    for n in ORDERS:
        got = reduced_Ln(table, n, beta)
        assert got == evaluate_Ln(table, n, beta), n
        assert all(isinstance(c, Fraction) for w in got.values() for c in w.values())


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_programs_match_the_algebra_on_model_tables(kind, beta):
    model, x, y = MODEL_TABLES[kind]
    table = model.taylor_table(x, y, MAX_ORDER)
    for n in ORDERS:
        want = evaluate_Ln(table, n, beta)
        got = reduced_Ln(table, n, beta)
        scale = max(abs(c) for poly in want.values() for c in poly.values())
        assert scale > 0
        for m in set(got) | set(want):
            g, w = got.get(m, {}), want.get(m, {})
            diff = max(abs(g.get(p, 0.0) - w.get(p, 0.0)) for p in set(g) | set(w))
            assert diff <= 1e-12 * scale, (n, m)


def test_programs_read_only_entries_within_the_order():
    # An order-n program must serve a table of extent n, as the generator does.
    for n in ORDERS:
        assert all(i + j <= n for _, (i, j) in _chi_trie(n)[0])
        assert reduced_Ln(full_table(extent=n), n, beta=-2) == evaluate_Ln(full_table(extent=n), n, -2)
