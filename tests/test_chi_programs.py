"""The committed chi programs against the operator algebra they come from.

``letfvol/chi_programs.jsonl`` holds, per correction order, chi_{n,m} as
polynomials in the Taylor-table entries and beta.  It must be exactly what
the algebra gives today, and evaluating it for a table must give what
``reduce_to_z(build_Ln(...))`` gives for that table: exactly on Fraction
tables, to 1e-12 of the largest chi coefficient on float model tables.
"""

import json
from fractions import Fraction

import pytest

from letfvol.chi_compile import REGENERATE, compile_chi_programs
from letfvol.errors import DomainError
from letfvol.expansion import CHI_PROGRAMS, MAX_ORDER, reduced_Ln
from letfvol.opalgebra import TimePoly, build_Ln, reduce_to_z
from test_opalgebra import MODEL_TABLES, cev_like_table, full_table

ORDERS = range(1, MAX_ORDER + 1)


def test_committed_programs_are_the_regenerated_ones():
    with open(CHI_PROGRAMS, encoding="utf-8") as fh:
        committed = [json.loads(line) for line in fh]
    # Integer numerators over integer denominators: equal lists are equal
    # Fractions.
    assert committed == compile_chi_programs(), (
        f"{CHI_PROGRAMS} is stale; regenerate it with `{REGENERATE}`"
    )


@pytest.mark.parametrize("beta", [-2, Fraction(3, 2)])
@pytest.mark.parametrize("make_table", [full_table, cev_like_table])
def test_programs_equal_the_algebra_on_fraction_tables(make_table, beta):
    table = make_table(extent=MAX_ORDER)
    for n in ORDERS:
        want = reduce_to_z(build_Ln(table, n, beta)).chi
        got = reduced_Ln(table, n, beta).chi
        assert set(got) == set(want), n
        for m in want:
            assert got[m].terms == want[m].terms, (n, m)
            assert all(isinstance(c, Fraction) for c in got[m].terms.values())


@pytest.mark.parametrize("beta", [-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(MODEL_TABLES))
def test_programs_match_the_algebra_on_model_tables(kind, beta):
    model, x, y = MODEL_TABLES[kind]
    table = model.taylor_table(x, y, MAX_ORDER)
    for n in ORDERS:
        want = reduce_to_z(build_Ln(table, n, beta)).chi
        got = reduced_Ln(table, n, beta).chi
        scale = max(poly.max_abs() for poly in want.values())
        assert scale > 0
        for m in set(got) | set(want):
            diff = got.get(m, TimePoly()) - want.get(m, TimePoly())
            assert diff.max_abs() <= 1e-12 * scale, (n, m)


def test_programs_read_only_entries_within_the_order():
    # An order-n program must serve a table of extent n, as build_Ln does.
    for n in ORDERS:
        reduced_Ln(full_table(extent=n), n, beta=-2)


def test_program_order_bounds():
    table = full_table()
    for n in (0, MAX_ORDER + 1):
        with pytest.raises(DomainError):
            reduced_Ln(table, n, beta=-2)
