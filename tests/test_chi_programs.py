"""The committed chi programs against the generator they come from.

``letfvol/chi_programs.jsonl`` holds, per correction order, chi_{n,m} as
polynomials in the Taylor-table entries and beta.  It must be exactly what
the generator gives today, and evaluating it for a table must give what
the generator's polynomials give for that table (``evaluate_Ln``):
exactly on Fraction tables, to 1e-12 of the largest chi coefficient on
float model tables.  Both return chi as {m: {tau_power: coeff}}.
"""

from fractions import Fraction

import pytest

from letfvol.errors import DomainError
from letfvol.expansion import CHI_PROGRAMS, MAX_ORDER, chi_programs_text, reduced_Ln
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
        reduced_Ln(full_table(extent=n), n, beta=-2)


def test_program_order_bounds():
    table = full_table()
    for n in (0, MAX_ORDER + 1):
        with pytest.raises(DomainError):
            reduced_Ln(table, n, beta=-2)
