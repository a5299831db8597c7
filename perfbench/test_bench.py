"""Self-test of the benchmark: tiny-scale runs must repeat exactly.

    python3 -m pytest perfbench/test_bench.py

Each workload runs twice, in separate processes, at a tiny scale with
tracing on. The input digests and every simulated-time metric must be
identical across the two runs, as must the layer call counts, and the
layers' self times plus the untraced remainder must add up to the traced
wall time.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = {"typing": 0.1, "flood": 0.1, "fleet": 0.15}


def _run(workload: str, details, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", "1", "--scale", str(SCALE[workload]),
         "--details", str(details)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", sorted(SCALE))
def test_runs_repeat_exactly(workload, tmp_path):
    docs = []
    for name in ("a", "b"):
        details = tmp_path / f"{name}.json"
        proc = _run(workload, details)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        final = json.loads(proc.stdout.strip().splitlines()[-1])
        assert final["correct"] and final["failed"] == 0
        docs.append(json.loads(details.read_text()))
    first, second = docs
    assert first["input_digest"] == second["input_digest"]
    assert first["simulated"] == second["simulated"]

    def counts(doc):
        return {k: v for k, v in doc["layers"].items() if v[1] != "s" and v[1] != "%"}

    assert counts(first) == counts(second)
    for doc in docs:
        layers = doc["layers"]
        self_times = [v[0] for k, v in layers.items() if k.endswith(".self_s")]
        assert all(t >= 0 for t in self_times)
        assert layers["untraced_s"][0] >= 0
        assert sum(self_times) + layers["untraced_s"][0] == pytest.approx(
            layers["traced_wall_s"][0], rel=1e-9
        )


def test_fails_without_the_program(tmp_path):
    """A directory holding only the benchmark must not produce a result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("flood", tmp_path / "d.json", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
