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
    one weight [m, tau_power, den] per power of tau in chi_{n,m}
    (``weights``), and each product of entries that occurs (``products``:
    variable indices, one per unit of power) with the terms [w, num, p] it
    enters.  Weight w is sum(num * beta^p * product) / den over its terms,
    with integer num and den; they are listed by descending p, then product.
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
        weights, products = [], {}
        for m in sorted(chi):
            for tau_pow, (den, poly) in sorted(chi[m].items()):
                terms = sorted(
                    (-p, tuple(sorted(map(index.__getitem__, entries))), num)
                    for (p, entries), num in poly.items()
                )
                for neg, mono, num in terms:
                    products.setdefault(mono, []).append([len(weights), num, -neg])
                weights.append([m, tau_pow, den])
        lines.append(
            {
                "n": n,
                "variables": [list(entry) for entry in variables],
                "weights": weights,
                "products": [[list(mono), products[mono]] for mono in sorted(products)],
            }
        )
    return lines


if __name__ == "__main__":
    with open(CHI_PROGRAMS, "w", encoding="utf-8") as fh:
        for line in compile_chi_programs():
            fh.write(json.dumps(line, separators=(",", ":")) + "\n")
