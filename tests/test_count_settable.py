"""tools/count_settable.py on a tiny package with known counts."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "count_settable.py"

MODULE = '''\
from dataclasses import dataclass


class Stepper:
    def step(self, u, dt):
        return u + dt


square = lambda x: x * x


@dataclass
class Point:
    x: float
    y: float = 0.0
'''

HARNESS = '''\
_TABLE = {
    "grid": {"nx": "nx", "ny": "ny"},
    "run": {"budget": "budget"},
}
'''


def test_counts_a_tiny_package(tmp_path):
    (tmp_path / "model.py").write_text(MODULE)
    (tmp_path / "harness.py").write_text(HARNESS)
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    counts = {name: int(value.replace(",", ""))
              for name, value in (line.split() for line in out.splitlines())}
    assert counts == {"lines": len(MODULE.splitlines()) + len(HARNESS.splitlines()),
                      "parameters": 3, "fields": 2, "keys": 3, "settable": 8}
    assert counts["settable"] == counts["parameters"] + counts["fields"] + counts["keys"]
