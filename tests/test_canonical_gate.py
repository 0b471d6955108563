"""The benchmark's canonical coefficient gate, run with the unit tests.

``perfbench/canonical.py`` recomputes the 57 committed ``IvSeries`` (18
surface tables plus the smile table, orders 1-3) and compares each
correction term with the committed one to 1e-12 of its largest
coefficient, so a change to the operator algebra or the expansion that
moves any series coefficient fails here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import canonical  # noqa: E402


def test_canonical_series_match_committed_coefficients():
    assert canonical.check() == []
