"""Seeded workloads of the recurlab benchmark and the checks on their outputs.

A workload is a list of jobs.  Almost every job is one ``recurlab/1``
config, run through ``recurlab.cli.run`` exactly as ``recurlab <kind>
--config`` runs it.  The one exception is the nested-interval witness
search of the ``certify`` workload, which has no CLI kind and is called
directly.

The seed only chooses inputs (angles, Monte-Carlo seeds, targets, kappa,
probe rotations); every choice keeps the workload in the same size class.
Sizes: ``full`` is what the benchmark measures, ``tiny`` is for the smoke
test.

Each check returns a list of failure messages (empty when the output is
right).  Checks look at verdicts and exact values only, never at the float
digits of a Monte-Carlo draw or of the 96-bit linsys route.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("tower", "gauss", "norms", "certify")
SIZES = ("full", "tiny")

NESTED = "nested-intervals"   # kind of the one job that bypasses the CLI


@dataclass
class Job:
    name: str        # unique within a workload; names the job's output directory
    config: dict     # a recurlab/1 config, or a NESTED pseudo-config


def _config(kind: str, params: dict, **extra) -> dict:
    return {"schema": "recurlab/1", "kind": kind, "params": params, **extra}


def _tri(count: int) -> dict:
    return {"name": "triangular-pow2", "count": count}


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def tower_jobs(rng: random.Random, size: str) -> list[Job]:
    """Chacon tower, one rankone config per stage k.  kappa is seeded on the
    stages below the last; the last stage keeps the CLI default, because
    kappa changes its work by up to 1.75x."""
    top = 4 if size == "full" else 2
    jobs = []
    for k in range(1, top + 1):
        params = {"schedule": {"kind": "chacon", "rounds": top + 2},
                  "k_range": [k, k]}
        if k < top:
            params["kappa"] = rng.randint(1, k)
        jobs.append(Job(f"stage{k}", _config("rankone", params)))
    return jobs


def gauss_jobs(rng: random.Random, size: str) -> list[Job]:
    """The criterion-07 model (12 stages, 4096 atoms, side-A indices 2..5) at
    a reduced sample count; the seed is the Monte-Carlo seed."""
    stages, samples = (12, 5000) if size == "full" else (4, 1000)
    params = {"kahane": {"seq": _tri(13), "stages": stages,
                         "targets": {"rule": "inverse-linear"}},
              "rectangle": [-0.6, 0.9, -0.7, 0.8], "blocks": 10, "side": "A",
              "max_index": 12, "samples": samples}
    return [Job("criterion07", _config("gauss", params,
                                       seed=rng.randrange(2 ** 31)))]


def _linsys_params(dimension: int, horizon: int, theta: str,
                   mc_samples: int) -> dict:
    return {"seq": _tri(14), "dimension": dimension, "horizon": horizon,
            "delta": "1/2", "witness_theta": theta,
            "mc": {"samples": mc_samples}}


# (dimension, horizon, bits) of the two norms configs, by size
NORMS_SHAPES = {"full": [(16, 4, 53), (6, 5, 96)],
                "tiny": [(4, 2, 53), (3, 2, 96)]}


def norms_jobs(rng: random.Random, size: str) -> list[Job]:
    """linsys with a witness ball: the float midpoint-radius route at 53
    bits and the mpmath object-array route at 96 bits."""
    jobs = []
    for dim, horizon, bits in NORMS_SHAPES[size]:
        theta = rng.choice(["1/3", "2/3"])
        jobs.append(Job(f"dim{dim}-h{horizon}-b{bits}", _config(
            "linsys", _linsys_params(dim, horizon, theta, 256), bits=bits,
            seed=rng.randrange(2 ** 31))))
    return jobs


def reach_config(size: str, horizon: int) -> dict:
    """The 53-bit dimension-16 config of ``norms`` at another horizon."""
    dim = NORMS_SHAPES[size][0][0]
    return _config("linsys", _linsys_params(dim, horizon, "1/3", 256), bits=53)


# grid-scan epsilons above sqrt(3) (a witness, whose scan.csv tabulates
# every term) and below it (no witness)
GRID_EPSILONS = {True: ["7/4", "9/5", "2"], False: ["17/10", "3/2", "1"]}
# nested-interval search deltas; a smaller delta leaves more survivor pieces
NESTED_DELTAS = ["1/2", "1/3", "2/5", "1/2"]


def certify_jobs(rng: random.Random, size: str) -> list[Job]:
    """Many short runs of the remaining kinds, in seeded rounds.  Verdicts
    and nested-search deltas, which set the work, come from fixed lists in
    a seeded order, so every seed does the same amount of work."""
    rounds, grid_n, nested_k = (4, 2000, 6) if size == "full" else (1, 200, 4)
    witness_rounds = rng.sample([r % 2 == 0 for r in range(rounds)], rounds)
    deltas = rng.sample(NESTED_DELTAS[:rounds], rounds)
    jobs = []
    for r in range(rounds):
        theta = "1/3" if r == 0 else rng.choice(["1/3", "2/3"])
        jobs.append(Job(f"r{r}-witness", _config("witness", {
            "seq": _tri(14), "theta": theta, "horizon": rng.randint(10, 12),
            "target": "3/2"})))
        jobs.append(Job(f"r{r}-jamison-structural", _config("jamison", {
            "seq": _tri(14), "epsilon": "1/4", "horizon": rng.randint(10, 12),
            "expect": "witness"})))
        eps = rng.choice(GRID_EPSILONS[witness_rounds[r]])
        jobs.append(Job(f"r{r}-jamison-grid", _config("jamison", {
            "seq": {"name": "naturals", "count": grid_n + 1}, "epsilon": eps,
            "horizon": grid_n, "grid": grid_n + 1,
            "expect": "witness" if _beats_sqrt3(eps) else "separation"})))
        targets = rng.choice([{"rule": "inverse-linear"},
                              {"rule": "pow2", "log2": 1},
                              {"rule": "pow2", "log2": 2}])
        jobs.append(Job(f"r{r}-kahane", _config("kahane", {
            "seq": _tri(13), "stages": 8, "targets": targets}, bits=128)))
        rotations = rng.sample(["1/3", "1/6", "1/5", "2/7", "1/4"],
                               rng.randint(1, 2))
        jobs.append(Job(f"r{r}-bohr", _config("bohr", {
            "r": 2, "n_max": 4, "eps": "1/16",
            "probe": {"rotations": rotations, "eps": "1/100"}})))
        jobs.append(Job(f"r{r}-nested", {
            "kind": NESTED, "ratio": 3, "horizon": nested_k,
            "delta": deltas[r]}))
    return jobs


_BUILDERS = {"tower": tower_jobs, "gauss": gauss_jobs, "norms": norms_jobs,
             "certify": certify_jobs}


def build(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The workload's jobs; the same seed gives the same jobs."""
    if size not in SIZES:
        raise ValueError(f"size must be one of {SIZES}")
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, size)


# ---------------------------------------------------------------------------
# the direct call
# ---------------------------------------------------------------------------

def run_nested(spec: dict, out: Path) -> dict:
    """``circle.witness_nested_intervals`` on a divisibility chain; writes a
    report.json of its own so the job is hashed like the CLI jobs."""
    from recurlab import circle, seqcore
    from recurlab.certificates import frac_str

    K = spec["horizon"]
    seq = seqcore.gen_divisibility(1, [spec["ratio"]] * K, K + 1)
    search = circle.witness_nested_intervals(seq, K, Fraction(spec["delta"]))
    cert = search.certificate
    report = {"kind": NESTED, "config": spec, "found": search.found,
              "terms": seq.prefix(K + 1),
              "theta": frac_str(cert.theta.exact) if cert else None,
              "delta_lo": frac_str(cert.delta.lo) if cert else None,
              "trials": [[frac_str(d), frac_str(m)] for d, m in search.trials]}
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(report, indent=2,
                                                sort_keys=True) + "\n")
    return report


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def _beats_sqrt3(eps: str) -> bool:
    """eps > sqrt(3), decided exactly."""
    e = Fraction(eps)
    return e > 0 and e * e > 3


def _chord(turns: float) -> float:
    return 2 * abs(math.sin(math.pi * turns))


def _certs_pass(report: dict) -> list[str]:
    return [f"certificate {c['kind']} did not pass"
            for c in report["certificates"] if not c["passed"]]


TOWER_POWERS = {1: 3, 2: 12, 3: 39, 4: 120}


def check_tower(job: Job, report: dict, out: Path) -> list[str]:
    fails = _certs_pass(report)
    k = job.config["params"]["k_range"][0]
    for cert in report["certificates"]:
        for key in ("overlap", "overlap_c", "escaped"):
            if Fraction(cert["values"][key]) != 0:
                fails.append(f"stage {k}: {key} is {cert['values'][key]}, not 0")
        if cert["params"]["power"] != TOWER_POWERS[k]:
            fails.append(f"stage {k}: power {cert['params']['power']}, "
                         f"expected {TOWER_POWERS[k]}")
    return fails


def check_gauss(job: Job, report: dict, out: Path) -> list[str]:
    fails = _certs_pass(report)
    stages = job.config["params"]["kahane"]["stages"]
    if report["values"]["atoms"] != 2 ** stages:
        fails.append(f"{report['values']['atoms']} atoms, expected {2 ** stages}")
    lines = (out / "gauss.csv").read_text().splitlines()
    head = lines[0].split(",")
    rows = [dict(zip(head, line.split(","))) for line in lines[1:]]
    if [int(r["k"]) for r in rows] != [2, 3, 4, 5]:
        fails.append("side-A indices are not 2..5")
    for r in rows:
        for m in ("second_moment", "shift_moment"):
            gap = abs(float(r[m]) - float(r[f"{m}_closed"]))
            if not gap <= 4 * float(r[f"{m}_se"]):
                fails.append(f"k={r['k']}: {m} is {gap:.3g} from its closed "
                             f"form, more than 4 standard errors")
    return fails


def _dense_operator(op: dict) -> np.ndarray:
    """T from its report encoding, in float64, independently of linsys."""
    n = op["dimension"]
    T = np.zeros((n, n), dtype=np.complex128)
    for j, t in enumerate(op["diag"]):
        T[j, j] = np.exp(2j * np.pi * float(Fraction(t)))
    for i, w in enumerate(op["weights"]):
        T[i, i + 1] = float(Fraction(w))
    return T


def check_norms(job: Job, report: dict, out: Path) -> list[str]:
    fails = _certs_pass(report)
    kinds = [c["kind"] for c in report["certificates"]]
    if kinds != ["power-norms", "ball-disjoint", "ball-sample"]:
        fails.append(f"certificates {kinds}")
    T = _dense_operator(report["values"]["operator"])
    eye = np.eye(T.shape[0])
    lines = (out / "norms.csv").read_text().splitlines()[1:]
    if len(lines) != job.config["params"]["horizon"] + 1:
        fails.append(f"{len(lines)} norm rows")
    for line in lines:
        k, n, ti_hi = line.split(",")[:3]
        k, n = int(k), int(n)
        if n != 2 ** (k * (k + 1) // 2):
            fails.append(f"row {k}: power {n}")
            continue
        ref = float(np.linalg.norm(np.linalg.matrix_power(T, n) - eye, 2))
        # the csv prints the certified upper end to 12 digits
        if ref > float(ti_hi) * (1 + 1e-9) + 1e-15:
            fails.append(f"row {k}: float64 ||T^n - I|| = {ref!r} lies above "
                         f"the certified upper end {ti_hi}")
    return fails


def check_witness(job: Job, report: dict, out: Path) -> list[str]:
    fails = _certs_pass(report)
    delta = report["certificates"][0]["bounds"]["delta"]
    lo, hi = Fraction(delta["lo"]), Fraction(delta["hi"])
    # every term is a power of two, so n * theta sits at distance 1/3 from
    # the integers and the chord is exactly sqrt(3)
    if not (0 < lo and lo * lo <= 3 <= hi * hi):
        fails.append(f"witness delta [{delta['lo']}, {delta['hi']}] "
                     f"does not enclose sqrt(3)")
    return fails


def check_jamison(job: Job, report: dict, out: Path) -> list[str]:
    fails = _certs_pass(report)
    params = job.config["params"]
    want = True if params.get("grid", 0) == 0 else _beats_sqrt3(params["epsilon"])
    if report["values"]["witness_found"] != want:
        fails.append(f"witness_found is {report['values']['witness_found']}, "
                     f"expected {want}")
    return fails


def check_kahane(job: Job, report: dict, out: Path) -> list[str]:
    fails = _certs_pass(report)
    kinds = [c["kind"] for c in report["certificates"]]
    if kinds != ["rigid-measure-build", "rigidity-check"]:
        fails.append(f"certificates {kinds}")
    return fails


def check_bohr(job: Job, report: dict, out: Path) -> list[str]:
    fails = _certs_pass(report)
    if report["certificates"][-1]["kind"] != "union":
        fails.append("no union certificate")
    probe = job.config["params"]["probe"]
    eps = float(Fraction(probe["eps"]))
    thetas = [Fraction(t) for t in probe["rotations"]]
    want = None
    for n in report["values"]["merged"]:
        worst = max(_chord(float((n * t) % 1)) for t in thetas)
        if abs(worst - eps) < 1e-9:
            return fails          # too close to eps for a float recheck
        if worst < eps:
            want = n
            break
    got = report["values"]["probe"]
    if got["found"] != (want is not None) or (want is not None
                                              and got["element"] != want):
        fails.append(f"probe found {got['element']}, recheck found {want}")
    return fails


def check_nested(job: Job, report: dict, out: Path) -> list[str]:
    if not report["found"]:
        return ["nested-interval search found no witness"]
    target = float(Fraction(job.config["delta"]))
    theta = Fraction(report["theta"])
    worst = min(_chord(float((n * theta) % 1)) for n in report["terms"])
    if worst < target - 1e-12:
        return [f"witness chord {worst!r} is below the target {target}"]
    return []


CHECKS = {"rankone": check_tower, "gauss": check_gauss, "linsys": check_norms,
          "witness": check_witness, "jamison": check_jamison,
          "kahane": check_kahane, "bohr": check_bohr, NESTED: check_nested}


def check(job: Job, report: dict, out: Path) -> list[str]:
    """Failure messages for one job's output; empty when it is right."""
    try:
        return CHECKS[job.config["kind"]](job, report, out)
    except (KeyError, IndexError, ValueError, TypeError, OSError) as e:
        return [f"malformed output: {type(e).__name__}: {e}"]
