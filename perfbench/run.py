"""The recurlab benchmark: seeded workloads driven through ``recurlab.cli.run``.

    python3 perfbench/run.py --workload tower --seed 1 --seconds 30 --trace 0

Every sample is a fresh interpreter (``perfbench/sample.py``), because a
CLI user pays import and first-call set-up on every invocation, and no
state may carry from one sample to the next.  Each workload runs in one
process with the BLAS pool pinned to one thread.

``--trace 0`` measures the end-to-end metrics: ``wall_s`` (one pass over
the workload's jobs, after import; median over samples), ``setup_s``
(interpreter start to configs validated; median over every sample,
set-up-only samples included) and ``peak_rss_mb`` (median peak resident
memory of a sample).  ``--trace 1`` alternates untraced and traced samples
and reports the per-layer metrics; ``trace.overhead_s`` is the traced
median ``wall_s`` minus the untraced one.

Every job's output is checked, and a job's report.json must hash the same
in every sample of a run.  Lines of ``name = value unit`` go to stdout; the
last line is one JSON object with keys correct, attempted, failed and
metrics.  The exit code is 1 when any check failed and 2 when the program
could not be run at all (then no JSON line is printed).  ``--workload all``
runs the four workloads in turn and prints their metrics together.
A summary with machine notes and per-sample values is written under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "recurlab"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")
SETUP_ONLY_SAMPLES = 3     # extra set-up samples per run, beside the passes
MIN_PASSES = 2             # pass samples per run, however long a pass takes
RUN_LIMIT_S = 170          # a run must end within 180 s; stop starting samples
BLAS_THREADS = "1"

# modules of src/recurlab behind each layer; cli carries certificates
LAYER_FILES = {"rankone": ["rankone.py"], "ratintervals": ["ratintervals.py"],
               "specmeasure": ["specmeasure.py"], "linsys": ["linsys.py"],
               "precision": ["precision.py"], "circle": ["circle.py"],
               "seqcore": ["seqcore.py"], "bohrgen": ["bohrgen.py"],
               "cli": ["cli.py", "certificates.py"]}


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env.pop("PYTHONPATH", None)       # the sample finds src/ by itself
    return env


def _sample(workload: str, seed: int, size: str, out: Path, deadline: float,
            *flags: str) -> dict:
    """Run one fresh-interpreter sample and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a sample could start")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--out", str(out),
           "--t0", repr(t0), *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} sample ran past the run's time limit") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} sample exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def src_lines() -> dict[str, int]:
    if not SRC.is_dir():
        raise BenchError(f"{SRC} is missing")
    count = lambda f: len((SRC / f).read_text().splitlines())
    out = {f"{layer}.src_lines": sum(count(f) for f in files)
           for layer, files in LAYER_FILES.items()}
    out["src.lines"] = sum(count(p.name) for p in SRC.glob("*.py"))
    return out


def machine_notes(seed: int) -> dict:
    import mpmath
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__, "blas_threads": int(BLAS_THREADS),
            "seed": seed}


def _tally(samples: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over the pass samples of one run;
    a job whose report.json differs from the first sample's counts too."""
    attempted = failed = 0
    notes = []
    first = {j["name"]: j["sha256"] for j in samples[0]["jobs"]}
    for i, s in enumerate(samples):
        for j in s["jobs"]:
            attempted += 1
            msgs = list(j["failures"])
            if j["sha256"] != first[j["name"]]:
                msgs.append("report.json differs from sample 0")
            if msgs:
                failed += 1
                notes += [f"sample {i} {j['name']}: {m}" for m in msgs]
    return attempted, failed, notes


def measure(workload: str, seed: int, seconds: int, trace: bool,
            size: str) -> dict:
    """One run of one workload; returns the summary it prints."""
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    scratch = ROOT / ".bench_out" / f"{workload}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    n = 0
    took = []
    cpus = sorted(os.sched_getaffinity(0))

    def sample(*flags):
        # successive samples take turns on the CPUs this process may use, so
        # a run's median mixes them instead of inheriting one CPU's speed
        nonlocal n
        n += 1
        os.sched_setaffinity(0, {cpus[n % len(cpus)]})
        t = time.monotonic()
        result = _sample(workload, seed, size, scratch / f"s{n}", deadline, *flags)
        took.append(time.monotonic() - t)
        return result

    try:
        sample("--setup-only")            # untimed warm-up: bytecode, file cache
        setups = [sample("--setup-only")["setup_s"]
                  for _ in range(0 if trace else SETUP_ONLY_SAMPLES)]
        plain, traced = [], []
        while True:
            plain.append(sample())
            step = took[-1]
            if trace:
                traced.append(sample("--trace"))
                step += took[-1]
            now = time.monotonic()
            if (len(plain) >= (1 if trace else MIN_PASSES)
                    and now + step > min(began + seconds, deadline)):
                break
    finally:
        os.sched_setaffinity(0, cpus)
        shutil.rmtree(scratch, ignore_errors=True)

    passes = plain + traced
    attempted, failed, notes = _tally(passes)
    summary = {"workload": workload, "seed": seed, "size": size,
               "trace": trace, "samples": len(plain),
               "attempted": attempted, "failed": failed, "failures": notes,
               "sha256": {j["name"]: j["sha256"] for j in passes[0]["jobs"]},
               "wall_s_samples": [s["wall_s"] for s in plain],
               "job_s": {j["name"]: median([s["jobs"][i]["seconds"]
                                            for s in plain])
                         for i, j in enumerate(plain[0]["jobs"])}}
    if trace:
        layers = {name: median([s["layers"][name] for s in traced])
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (median([s["wall_s"] for s in traced])
                                      - median([s["wall_s"] for s in plain]))
        layers.update(src_lines())
        summary["metrics"] = layers
        summary["traced_samples"] = len(traced)
        summary["spans"] = traced[-1]["spans"]
    else:
        setups += [s["setup_s"] for s in plain]
        summary["setup_s_samples"] = setups
        summary["metrics"] = {
            "wall_s": median([s["wall_s"] for s in plain]),
            "setup_s": median(setups),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in plain])}
    summary["elapsed_s"] = time.monotonic() - began
    return summary


def units() -> dict[str, str]:
    """Every metric's unit, from BENCHMARK.json beside this directory."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _check_names(s: dict, unit: dict) -> None:
    want = {m for m in unit if (m in END_TO_END) != s["trace"]}
    if set(s["metrics"]) != want:
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(set(s['metrics']) ^ want)}")


def report_lines(s: dict, unit: dict) -> list[str]:
    w = s["workload"]
    notes = {}
    if not s["trace"]:
        notes = {"wall_s": f" (median of {s['samples']} fresh-interpreter "
                           f"samples; a tail percentile needs 10 samples "
                           f"beyond it, so only the median is reported)",
                 "setup_s": f" (median of {len(s['setup_s_samples'])} samples)"}
    lines = [f"[{w}] {name} = {value:.6g} {unit[name]}{notes.get(name, '')}"
             for name, value in s["metrics"].items()]
    if s["trace"]:
        own = {k[:-len(".self_s")]: v for k, v in s["metrics"].items()
               if k.endswith(".self_s")}
        total = sum(own.values()) or 1.0
        ranked = sorted(own.items(), key=lambda kv: -kv[1])
        lines.append(f"[{w}] self time by layer: " + ", ".join(
            f"{k} {100 * v / total:.0f}%" for k, v in ranked if v > 0))
    share = s["failed"] / s["attempted"]
    lines.append(f"[{w}] failed_share = {s['failed']}/{s['attempted']} = "
                 f"{share:.6g} ratio")
    for name, digest in s["sha256"].items():
        lines.append(f"[{w}] sha256 {name} {digest}")
    lines += [f"[{w}] FAILED {m}" for m in s["failures"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=workloads.SIZES,
                    help="tiny is for the smoke test")
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else [args.workload]
    try:
        src_lines()                      # fail fast without the program
        unit = units()
        notes = machine_notes(args.seed)
        summaries = [measure(w, args.seed, args.seconds, bool(args.trace),
                             args.size) for w in names]
        for s in summaries:
            _check_names(s, unit)
    except BenchError as e:
        print(f"benchmark could not run: {e}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    for s in summaries:
        s["machine"] = notes
        (out / f"{s['workload']}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(s, indent=2) + "\n")
        print("\n".join(report_lines(s, unit)))
    print("machine: " + json.dumps(notes))
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries
                   for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": unit[k.split(".", 1)[1]
                                                 if len(summaries) > 1 else k]}
                    for k, v in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
