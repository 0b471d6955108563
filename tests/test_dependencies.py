"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``: importing the runtime
modules must not pull in numpy, scipy or ``fractions`` (with ``decimal``),
which only the tests use: the chi generator works on integers.  Nor
does it load ``dataclasses`` or ``inspect``, whose import costs more than
a fresh process spends on the package itself: the value objects are
named tuples.  Nor ``opalgebra``, the generator, which only the chi-program
writer runs.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
before = set(sys.modules)
import letfvol.blackscholes, letfvol.closedform, letfvol.expansion
after = set(sys.modules)
import json
print(json.dumps({"loaded": sorted(after), "added": sorted(after - before)}))
"""


def probe() -> dict:
    """The modules a fresh interpreter holds after importing the runtime
    modules ("loaded"), and those of them that the import added ("added")."""
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(result.stdout)


def test_runtime_imports_need_no_undeclared_dependency():
    assert {"numpy", "scipy", "fractions"}.isdisjoint(probe()["loaded"])


def test_runtime_imports_load_neither_dataclasses_nor_inspect():
    # Only what the import adds: a site hook may have loaded them before.
    assert {"dataclasses", "inspect"}.isdisjoint(probe()["added"])


def test_runtime_imports_leave_the_generator_unloaded():
    # expansion imports opalgebra when its writer calls build_Ln or reduce_to_z.
    assert "letfvol.opalgebra" not in probe()["added"]
