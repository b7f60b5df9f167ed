"""Tests of the benchmark itself: schema and oracles in smoke mode, and the
refusal to run without the program.  Run with ``python3 -m pytest -q bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def test_smoke_checks_schema_and_oracles():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines = proc.stdout.splitlines()
    assert all(line.endswith(": ok") for line in lines), proc.stdout
    checked = {line.split()[1] for line in lines}
    assert checked >= {w["name"] for w in spec["workloads"]} | {"bundle_json"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "default",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr
