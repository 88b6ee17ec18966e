"""The checked-in counter trajectory (``BENCH_counters.json``) matches
the code: ``benchmarks/counters.py`` regenerates every counter and each
must equal the latest entry exactly."""

from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "counters.py"


def _counters_module():
    spec = importlib.util.spec_from_file_location("bench_counters", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counters_equal_the_latest_entry(tmp_path):
    counters = _counters_module()
    trajectory = counters.load_trajectory()
    assert trajectory, f"{counters.TRAJECTORY} holds no entry"
    measured = counters.measure(str(tmp_path))
    assert counters.differences(trajectory[-1]["values"], measured) == []
