"""Writes ``chi_programs.jsonl``, which ``expansion`` reads: the chi weights
that ``opalgebra`` generates, one order per line.  Not imported at run
time; regenerate with ``PYTHONPATH=src python3 -m letfvol.chi_compile``."""

import json

from .expansion import CHI_PROGRAMS, MAX_ORDER
from .opalgebra import build_Ln, reduce_to_z

REGENERATE = "PYTHONPATH=src python3 -m letfvol.chi_compile"


def compile_chi_programs() -> list:
    """Lines of CHI_PROGRAMS: a header, then the chi program of order n on line n.

    Formats ``reduce_to_z(build_Ln(n))`` for n = 1..MAX_ORDER.  Order n
    holds the table entries (name, i, j) with i + j <= n (``variables``),
    the distinct products of them that occur (``monomials``, lists of
    variable indices, one per unit of power), and one weight
    [m, tau_power, den, terms] per power of tau in chi_{n,m}: the weight is
    sum(num * beta^p * monomials[k]) / den over [num, p, k] in terms, with
    integer num and den.
    """
    lines = [
        {
            "about": "chi programs of letfvol.expansion, one order per line, "
            f"generated by `{REGENERATE}`; tests/test_chi_programs.py "
            "regenerates them and compares"
        }
    ]
    for n in range(1, MAX_ORDER + 1):
        variables = [
            (name, i, d - i) for name in "abcf" for d in range(n + 1) for i in range(d, -1, -1)
        ]
        index = {entry: k for k, entry in enumerate(variables)}
        chi = reduce_to_z(build_Ln(n))
        weights = []
        for m in sorted(chi):
            for tau_pow, (den, poly) in sorted(chi[m].items()):
                # Keyed (-beta power, variable indices), so terms sort by
                # descending beta power, then by monomial.
                terms = {
                    (-p, tuple(sorted(map(index.__getitem__, entries)))): num
                    for (p, entries), num in poly.items()
                }
                weights.append((m, tau_pow, den, sorted(terms.items())))
        monomials = sorted({mono for *_, terms in weights for (_, mono), _ in terms})
        position = {mono: k for k, mono in enumerate(monomials)}
        lines.append(
            {
                "n": n,
                "beta_degree": max(-neg for *_, terms in weights for (neg, _), _ in terms),
                "variables": [list(entry) for entry in variables],
                "monomials": [list(mono) for mono in monomials],
                "weights": [
                    [m, tau_pow, den, [[num, -neg, position[mono]] for (neg, mono), num in terms]]
                    for m, tau_pow, den, terms in weights
                ],
            }
        )
    return lines


if __name__ == "__main__":
    with open(CHI_PROGRAMS, "w", encoding="utf-8") as fh:
        for line in compile_chi_programs():
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
