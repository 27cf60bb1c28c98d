"""Smoke test of the benchmark itself: every workload at its smallest size,
in both modes, must report every metric BENCHMARK.json names, with its unit.

    python3 -m pytest perfbench
"""
import subprocess
import sys
from pathlib import Path


def test_every_metric_present_with_unit():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout + proc.stderr
