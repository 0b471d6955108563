"""Writes ``chi_programs.jsonl``, which ``expansion`` reads: the operator
algebra run once per order on a symbolic table and beta.  Not imported at
run time; regenerate with ``PYTHONPATH=src python3 -m letfvol.chi_compile``."""

import json
import math
from fractions import Fraction

from .expansion import CHI_PROGRAMS, MAX_ORDER
from .opalgebra import build_Ln, reduce_to_z

REGENERATE = "PYTHONPATH=src python3 -m letfvol.chi_compile"


class _Symbolic:
    """Polynomial with Fraction coefficients in the table entries and beta.

    A monomial is the sorted tuple of its variable indices, one per unit
    of power.  Supports what the operator algebra asks of a coefficient:
    sums, negation, products with numbers and with each other, and tests
    against 0.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = terms

    def _lift(self, other) -> "_Symbolic":
        if isinstance(other, _Symbolic):
            return other
        return _Symbolic({(): Fraction(other)} if other else {})

    def __eq__(self, other) -> bool:
        return self.terms == self._lift(other).terms

    def __add__(self, other) -> "_Symbolic":
        out = dict(self.terms)
        for mono, coeff in self._lift(other).terms.items():
            acc = out.get(mono, 0) + coeff
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        return _Symbolic(out)

    __radd__ = __add__

    def __neg__(self) -> "_Symbolic":
        return self * -1

    def __mul__(self, other) -> "_Symbolic":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in self._lift(other).terms.items():
                mono = tuple(sorted(m1 + m2))
                acc = out.get(mono, 0) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return _Symbolic(out)

    __rmul__ = __mul__


# Variable index of beta; it sorts first in every monomial.
_BETA = -1


class _SymbolicTable:
    """Order-n Taylor table whose entry ``entries[k]`` is the variable k."""

    def __init__(self, n: int):
        self.entries = [
            (name, i, d - i)
            for name in "abcf"
            for d in range(n + 1)
            for i in range(d, -1, -1)
        ]
        self._index = {entry: k for k, entry in enumerate(self.entries)}

    def get(self, name: str, i: int, j: int) -> _Symbolic:
        return _Symbolic({(self._index[(name, i, j)],): Fraction(1)})


def compile_chi_programs() -> list:
    """Lines of CHI_PROGRAMS: a header, then the chi program of order n on line n.

    Runs ``build_Ln`` and ``reduce_to_z`` once per order on a symbolic
    table and beta.  Order n holds the table entries (name, i, j) with
    i + j <= n (``variables``), the distinct products of them that occur
    (``monomials``, lists of variable indices, one per unit of power), and
    one weight [m, tau_power, den, terms] per power of tau in chi_{n,m}:
    the weight is sum(num * beta^p * monomials[k]) / den over [num, p, k]
    in terms, with integer num and den.
    """
    beta = _Symbolic({(_BETA,): Fraction(1)})
    lines = [
        {
            "about": "chi programs of letfvol.expansion, one order per line, "
            f"generated by `{REGENERATE}`; tests/test_chi_programs.py "
            "regenerates them and compares"
        }
    ]
    for n in range(1, MAX_ORDER + 1):
        table = _SymbolicTable(n)
        chi = reduce_to_z(build_Ln(table, n, beta)).chi
        coeffs = [
            (m, tau_pow, coeff)
            for m in sorted(chi)
            for (tau_pow,), coeff in sorted(chi[m].terms.items())
        ]
        monos = [mono for _, _, coeff in coeffs for mono in coeff.terms]
        monomials = sorted({mono[mono.count(_BETA) :] for mono in monos})
        position = {entries: k for k, entries in enumerate(monomials)}
        weights = []
        for m, tau_pow, coeff in coeffs:
            den = math.lcm(*(c.denominator for c in coeff.terms.values()))
            terms = []
            for mono, c in sorted(coeff.terms.items()):
                p = mono.count(_BETA)
                terms.append([int(c * den), p, position[mono[p:]]])
            weights.append([m, tau_pow, den, terms])
        lines.append(
            {
                "n": n,
                "beta_degree": max(mono.count(_BETA) for mono in monos),
                "variables": [list(entry) for entry in table.entries],
                "monomials": [list(entries) for entries in monomials],
                "weights": weights,
            }
        )
    return lines


if __name__ == "__main__":
    with open(CHI_PROGRAMS, "w", encoding="utf-8") as fh:
        for line in compile_chi_programs():
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
