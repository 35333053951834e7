"""Every script in demos/ runs against the current package and ends as shown.

The demos import public names only, fit_log_slope among them, so a rename
or a deletion in the package breaks them; each runs as __main__ here and its
last printed line is matched.
"""

import re
import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"

CLOSING_LINES = {
    "area_law.py": r"  plateau spread over last 10 points: \S+",
    "critical_scaling.py": r"expected slope 1/3 = 0\.33333 bits per doubling",
    "oracle_check.py": r"all comparisons within 1e-8",
    "peak_structure.py": r"\(equal couplings gave S = 3\.044960\)",
}


def test_every_demo_is_covered():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(CLOSING_LINES)


@pytest.mark.parametrize("name", sorted(CLOSING_LINES))
def test_demo_runs_to_its_closing_line(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    lines = [line for line in capsys.readouterr().out.splitlines() if line.strip()]
    assert re.fullmatch(CLOSING_LINES[name], lines[-1])
