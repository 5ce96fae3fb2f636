"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(trace: int) -> tuple[int, list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all",
         "--size", "tiny", "--seconds", "1", "--seed", "5",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, group):
    code, lines, last = _bench(trace)
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for w in workloads.WORKLOADS:
        for m in SPEC[group]:
            assert any(line.startswith(f"[{w}] {m['name']} = ")
                       and line.split(" ")[4] == m["unit"] for line in lines), \
                (w, m["name"])
            assert last["metrics"][f"{w}.{m['name']}"]["unit"] == m["unit"]
        assert any(line.startswith(f"[{w}] failed_share = 0/") for line in lines)


def _tiny_tower_report(tmp_path):
    from recurlab.cli import ExperimentConfig, run
    job = workloads.build("tower", 1, "tiny")[-1]
    out = tmp_path / job.name
    return job, run(ExperimentConfig.from_dict(job.config), out), out


def test_nonzero_overlap_is_a_failure(tmp_path):
    job, report, out = _tiny_tower_report(tmp_path)
    assert workloads.check(job, report, out) == []
    report["certificates"][0]["values"]["overlap"] = "1/9"
    assert workloads.check(job, report, out)


def test_failures_and_changed_reports_are_counted():
    ok = {"name": "a", "failures": [], "sha256": "x"}
    samples = [{"jobs": [ok]},
               {"jobs": [dict(ok, failures=["overlap is 1/9, not 0"])]},
               {"jobs": [dict(ok, sha256="y")]}]
    attempted, failed, notes = bench._tally(samples)
    assert (attempted, failed) == (3, 2) and len(notes) == 2


def test_same_seed_same_jobs():
    for w in workloads.WORKLOADS:
        assert workloads.build(w, 7) == workloads.build(w, 7)
