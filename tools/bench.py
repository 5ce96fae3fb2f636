"""Write a BENCH file: the gated metrics, the source size, and the depth
and start-up probes.

    python3 tools/bench.py --out BENCH_<n>.json

The gated end-to-end metrics of every workload come from
``perfbench/run.py --workload all --trace 0``, run unchanged at its default
seed and run length, so every BENCH file measures the same thing; its last
stdout line and its machine notes are copied into the file.  ``src.lines``
is perfbench's own count of ``src/recurlab/*.py``.  Each depth
probe runs one config at the deepest size that certifies in seconds, in a
fresh interpreter per repeat: ``run_s`` times ``cli.run`` alone and
``process_s`` the whole process, from start to exit, and ``peak_rss_mb`` is
the child's own ``ru_maxrss`` at the end of the run; all three are medians
over the repeats, and every repeat's values are kept.  A repeat that runs
past ``PROBE_TIMEOUT`` seconds ends the probe as failed, with the time
limit as its error.  Each start-up probe
validates one small config of one CLI kind in a fresh interpreter:
``setup_s`` runs from just before the interpreter starts to the validated
config (the layers of the kind loaded), and ``peak_rss_mb`` is the child's
``ru_maxrss`` there; each is the median, min and max over the repeats, which
take turns over the kinds.  ``dont_write_bytecode`` records whether the
children ran without writing bytecode (``PYTHONDONTWRITEBYTECODE``), which
moves start-up by tens of milliseconds.  The exit code is 1 when perfbench
reports a failed check or a probe fails, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

REPEATS = 9     # fresh-interpreter runs of each depth and start-up probe
PROBE_TIMEOUT = 300     # seconds for one repeat of a depth probe

# one config per probe, at today's reach
PROBES = {
    "jamison-grid-92681": {
        "schema": "recurlab/1", "kind": "jamison",
        "params": {"seq": {"name": "naturals", "count": 92681},
                   "epsilon": "7/4", "horizon": 92680, "grid": 92681,
                   "expect": "scan"}},
    "linsys-dim16-K20-192bits": {
        "schema": "recurlab/1", "kind": "linsys", "bits": 192,
        "params": {"seq": {"name": "triangular-pow2", "count": 21},
                   "dimension": 16, "horizon": 20, "delta": "1/2"}},
    "linsys-dim16-K20-256bits": {
        "schema": "recurlab/1", "kind": "linsys", "bits": 256,
        "params": {"seq": {"name": "triangular-pow2", "count": 21},
                   "dimension": 16, "horizon": 20, "delta": "1/2"}},
    "linsys-dim32-K20-256bits": {
        "schema": "recurlab/1", "kind": "linsys", "bits": 256,
        "params": {"seq": {"name": "triangular-pow2", "count": 21},
                   "dimension": 32, "horizon": 20, "delta": "1/2"}},
    "linsys-dim64-K9-128bits": {
        "schema": "recurlab/1", "kind": "linsys", "bits": 128,
        "params": {"seq": {"name": "triangular-pow2", "count": 14},
                   "dimension": 64, "horizon": 9, "delta": "1/2"}},
    "linsys-dim96-K9-128bits": {
        "schema": "recurlab/1", "kind": "linsys", "bits": 128,
        "params": {"seq": {"name": "triangular-pow2", "count": 14},
                   "dimension": 96, "horizon": 9, "delta": "1/2"}},
    "linsys-dim64-K20-256bits": {
        "schema": "recurlab/1", "kind": "linsys", "bits": 256,
        "params": {"seq": {"name": "triangular-pow2", "count": 21},
                   "dimension": 64, "horizon": 20, "delta": "1/2"}},
}

# one small config per CLI kind, for the start-up probes
TRI = {"name": "triangular-pow2", "count": 14}
STARTUP = {
    "jamison": {"seq": {"name": "naturals", "count": 40}, "epsilon": "7/4",
                "horizon": 39, "grid": 42, "expect": "witness"},
    "witness": {"seq": TRI, "theta": "1/3", "horizon": 12, "target": "3/2"},
    "kahane": {"seq": TRI, "stages": 4, "targets": {"rule": "inverse-linear"}},
    "rankone": {"schedule": {"kind": "chacon", "rounds": 4}, "k_range": [1, 2]},
    "linsys": {"seq": TRI, "dimension": 4, "horizon": 3, "delta": "1/2"},
    "bohr": {"r": 2, "n_max": 4, "eps": "1/16"},
    "gauss": {"kahane": {"seq": TRI, "stages": 4,
                         "targets": {"rule": "inverse-linear"}},
              "rectangle": [-0.6, 0.9, -0.7, 0.8], "blocks": 10, "side": "A",
              "max_index": 12, "samples": 1000},
}

# the start-up probe's child: argv[2] is the parent's monotonic clock just
# before the spawn
_STARTUP = """
import json, resource, sys, time
from recurlab import cli
cli.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
setup_s = time.monotonic() - float(sys.argv[2])
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"setup_s": setup_s, "peak_rss_mb": rss}))
"""

# the depth probe's child: validate, then time one cli.run (ru_maxrss is in
# KiB on Linux)
_PROBE = """
import json, resource, sys, time
from recurlab import cli
cfg = cli.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
t = time.perf_counter()
report = cli.run(cfg, sys.argv[2])
run_s = time.perf_counter() - t
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"run_s": run_s, "peak_rss_mb": rss, "passed": report["passed"]}))
"""


def perfbench() -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", "all",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode == 2 or not lines:
        raise SystemExit(f"perfbench could not run:\n{proc.stderr}")
    result = {"command": cmd[1:], "exit_code": proc.returncode,
              **json.loads(lines[-1])}
    for line in lines:
        if line.startswith("machine: "):
            result["machine"] = json.loads(line[len("machine: "):])
    return result


def probe(config: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(REPEATS):
            t = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", _PROBE, json.dumps(config), f"{tmp}/{i}"],
                    env=env, capture_output=True, text=True, timeout=PROBE_TIMEOUT)
            except subprocess.TimeoutExpired:
                return {"config": config, "passed": False,
                        "error": f"a run took over {PROBE_TIMEOUT} s"}
            process_s = time.perf_counter() - t
            if proc.returncode:
                return {"config": config, "error": proc.stderr.strip()[-2000:]}
            runs.append({"process_s": process_s,
                         **json.loads(proc.stdout.splitlines()[-1])})
    return {"config": config,
            "passed": all(r["passed"] for r in runs),
            "run_s": median(r["run_s"] for r in runs),
            "process_s": median(r["process_s"] for r in runs),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
            "repeats": runs}


def startup() -> dict:
    """The start-up probe of every kind; one untimed warm-up run each fills
    the file cache."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    configs = {kind: {"schema": "recurlab/1", "kind": kind, "params": params}
               for kind, params in STARTUP.items()}
    runs = {kind: [] for kind in configs}
    for i in range(REPEATS + 1):
        for kind, config in configs.items():
            proc = subprocess.run(
                [sys.executable, "-c", _STARTUP, json.dumps(config),
                 repr(time.monotonic())], env=env, capture_output=True, text=True)
            if proc.returncode:
                return {kind: {"config": config,
                               "error": proc.stderr.strip()[-2000:]}}
            if i:
                runs[kind].append(json.loads(proc.stdout.splitlines()[-1]))
    spread = lambda xs: {"median": median(xs), "min": min(xs), "max": max(xs)}
    return {kind: {"config": configs[kind],
                   **{key: spread([r[key] for r in rs])
                      for key in ("setup_s", "peak_rss_mb")},
                   "repeats": rs}
            for kind, rs in runs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH file to write")
    args = ap.parse_args(argv)
    bench = {"perfbench": perfbench(),
             "dont_write_bytecode": sys.flags.dont_write_bytecode,
             "probes": {name: probe(cfg)
                        for name, cfg in PROBES.items()},
             "startup": startup()}
    # imported after the probes: perfbench.run loads numpy, and on Linux a
    # child's ru_maxrss starts from this process's RSS when it is spawned
    from perfbench.run import src_lines
    bench["src.lines"] = src_lines()["src.lines"]
    Path(args.out).write_text(json.dumps(bench, indent=2) + "\n")
    ok = (bench["perfbench"]["exit_code"] == 0
          and all(p.get("passed") for p in bench["probes"].values())
          and not any("error" in p for p in bench["startup"].values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
