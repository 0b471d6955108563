"""The package runs on the standard library alone.

``pyproject.toml`` declares ``dependencies = []``: importing the runtime
modules must not pull in numpy, scipy or ``fractions`` (with ``decimal``),
which only the tests use: the chi generator works on integers.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import sys
import letfvol.blackscholes, letfvol.closedform, letfvol.expansion
print(sorted(name for name in ("numpy", "scipy", "fractions") if name in sys.modules))
"""


def test_runtime_imports_need_no_undeclared_dependency():
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert result.stdout.strip() == "[]"
