"""One benchmark sample: a fresh interpreter that runs one pass of a workload.

    python3 perfbench/sample.py --workload tower --seed 1 --t0 <monotonic>
        --out <dir> [--size full|tiny] [--setup-only] [--trace]

``--t0`` is ``time.monotonic()`` read by the parent just before it started
this process, so ``setup_s`` covers interpreter start, the import of
``recurlab.cli`` and the validation of the workload's configs.  ``wall_s``
is one pass over the jobs, measured after that.  The last line of stdout
is one JSON object with the sample's measurements, its output checks and
the sha256 of every job's report.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def _reach(size: str, out: Path) -> int:
    """Largest horizon at which the 53-bit dimension-16 norms config still
    certifies, probing upward from the horizon the workload runs."""
    from recurlab import cli
    from recurlab.linsys import PrecisionError

    start = workloads.NORMS_SHAPES[size][0][1]
    reach = start
    for horizon in range(start + 1, start + 4):
        cfg = cli.ExperimentConfig.from_dict(workloads.reach_config(size, horizon))
        try:
            if not cli.run(cfg, out / f"reach-h{horizon}")["passed"]:
                break
        except (PrecisionError, ValueError):
            break
        reach = horizon
    return reach


def _bytes_under(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--size", default="full", choices=workloads.SIZES)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    # call through the module, so that spans installed below are seen
    from recurlab import cli

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    jobs = workloads.build(args.workload, args.seed, args.size)
    configs = [None if job.config["kind"] == workloads.NESTED
               else cli.ExperimentConfig.from_dict(job.config) for job in jobs]
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = Path(args.out)
    reports, errors, seconds = [], [], []
    start = time.perf_counter()
    for job, cfg in zip(jobs, configs):
        t = time.perf_counter()
        try:
            if cfg is None:
                reports.append(workloads.run_nested(job.config, out / job.name))
            else:
                reports.append(cli.run(cfg, out / job.name))
            errors.append(None)
        except Exception as e:     # a job that raises is a failed job
            reports.append(None)
            errors.append(f"{type(e).__name__}: {e}")
        seconds.append(time.perf_counter() - t)
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
              "jobs": []}
    for job, report, error, sec in zip(jobs, reports, errors, seconds):
        failures = ([error] if error else
                    workloads.check(job, report, out / job.name))
        path = out / job.name / "report.json"
        digest = (hashlib.sha256(path.read_bytes()).hexdigest()
                  if path.exists() else None)
        result["jobs"].append({"name": job.name, "seconds": sec,
                               "failures": failures, "sha256": digest})
    if tracer is not None:
        tracer.enabled = False
        layers = tracing.layer_metrics(tracer)
        layers["cli.bytes_written"] = _bytes_under(out)
        layers["linsys.reach_horizon_53"] = (_reach(args.size, out)
                                             if args.workload == "norms" else 0)
        result["layers"] = layers
        result["spans"] = tracer.table()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
