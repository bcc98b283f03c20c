"""The traced benchmark wraps program attributes by name; keep them in place.

`benchmarks/tracer.py` replaces every `TARGETS` entry through
`owner.__dict__[attr]` and reads `DenseSimplex._pivots` and `tab.size` after
each solve. A rename would make the traced run fail only after minutes of
work; these checks fail at once.
"""

import importlib
import importlib.util
from pathlib import Path

from moebalance.lp import DenseSimplex

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves():
    tracer = load_tracer()
    missing = []
    for module_name, path in tracer.TARGETS:
        owner = importlib.import_module(f"moebalance.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_solve_hook_reads_pivots_and_tableau():
    tracer = load_tracer()
    solver = DenseSimplex([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [3.0, 2.0, 4.0])
    args, before = tracer._pivots_before(None, 0, (solver,))
    solver.solve()
    pivots, cells = tracer._pivots_after(args, before)
    assert pivots == solver._pivots > 0
    assert cells == solver.tab.size == 3 * 5
