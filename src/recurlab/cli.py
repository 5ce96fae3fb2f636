"""Config-driven experiment runner.

One experiment = one config file = one output directory.  A config is a
JSON object (schema "recurlab/1") naming an experiment kind, its module
parameters, working precision, and RNG seed; ``run`` executes the
pipeline and writes a report.json, one JSON file per certificate, and
plot-ready CSV tables.  The report embeds the fully materialized config
(defaults included), so re-running from the report alone reproduces
every number bit for bit.  Tables are streamed to disk line by line, at
the config's working precision.  Configs are checked against
``CONFIG_SCHEMA`` and ``PARAMS_SCHEMAS`` by ``_violation``, which reads the
JSON Schema keywords in ``SCHEMA_KEYWORDS``; an error names the key path.

Exit codes: 0 when every certificate passes, 1 when some fail, 2 for
configuration or usage errors.  CSV numeric columns carry decimal
strings at recorded precision; exact rationals appear additionally as
"p/q".
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .bohrgen import (BohrSeeds, BohrSet, all_rotation_witnesses,
                      block_jamison_witness, bohr_recurrence_probe,
                      family_label, probe_csv, schedule_build)
from .certificates import (SCHEMA, Certificate, combine_union, dump_json,
                           encode_value, frac_str, load_report, summarize)
from .circle import GRID_LIMIT, jamison_separation_test, verify_witness
from .linsys import (PrecisionError, ball_certificate, ball_mc_check,
                     build_operator, norm_table_csv)
from .precision import chord, distance_numerators, residue, working_bits
from .rankone import StackingSchedule, nonrecurrence_check, shifted_schedule
from .seqcore import (IntegerSequence, fact42_split, gen_divisibility,
                      gen_recursive_q, naturals, triangular_pow2)
from .specmeasure import (GaussianRectangleModel, gauss_rectangle_overlap_mc,
                          kahane_build, rigidity_check)

KINDS = ("jamison", "witness", "kahane", "rankone", "linsys", "bohr", "gauss")

_FRAC = {"type": ["string", "number"]}
MIN_BITS = 53

_SEQ_SCHEMA = {
    "type": "object",
    "required": ["name", "count"],
    "properties": {
        "name": {"enum": ["triangular-pow2", "divisibility", "recursive-q",
                          "chacon", "naturals"]},
        "count": {"type": "integer", "minimum": 1},
        "base": {"type": "integer", "minimum": 1},
        "ratio": {"type": "integer", "minimum": 2},
        "ratios": {"type": "array", "items": {"type": "integer", "minimum": 2}},
        "q": {"oneOf": [{"type": "integer", "minimum": 1},
                        {"type": "array", "minItems": 1,
                         "items": {"type": "integer", "minimum": 1}}]},
    },
    "additionalProperties": False,
}

_TARGETS_SCHEMA = {"oneOf": [
    {"type": "array", "items": _FRAC, "minItems": 1},
    {"type": "object", "required": ["rule"],
     "properties": {"rule": {"enum": ["inverse-linear", "pow2"]},
                    "log2": {"type": "integer", "minimum": 1}},
     "additionalProperties": False,
     "if": {"properties": {"rule": {"const": "pow2"}}},
     "then": {"required": ["log2"]}},
]}

PARAMS_SCHEMAS = {
    "jamison": {
        "type": "object",
        "required": ["seq", "epsilon", "horizon"],
        "properties": {"seq": _SEQ_SCHEMA, "epsilon": _FRAC,
                       "horizon": {"type": "integer", "minimum": 0},
                       "grid": {"type": "integer", "minimum": 0,
                                "maximum": GRID_LIMIT - 1},
                       "expect": {"enum": ["witness", "separation", "scan"]}},
        "additionalProperties": False,
    },
    "witness": {
        "type": "object",
        "required": ["seq", "theta", "horizon"],
        "properties": {"seq": _SEQ_SCHEMA, "theta": _FRAC,
                       "horizon": {"type": "integer", "minimum": 0},
                       "target": _FRAC},
        "additionalProperties": False,
    },
    "kahane": {
        "type": "object",
        "required": ["seq", "stages", "targets"],
        "properties": {"seq": _SEQ_SCHEMA,
                       "stages": {"type": "integer", "minimum": 1},
                       "targets": _TARGETS_SCHEMA,
                       "horizon": {"type": "integer", "minimum": 0}},
        "additionalProperties": False,
    },
    "rankone": {
        "type": "object",
        "required": ["schedule", "k_range"],
        "properties": {
            "schedule": {
                "type": "object",
                "required": ["kind"],
                "properties": {"kind": {"enum": ["chacon", "constant",
                                                 "from-seq", "shifted"]},
                               "rounds": {"type": "integer", "minimum": 1},
                               "p": {"type": "integer", "minimum": 1},
                               "r": {"type": "integer", "minimum": 0},
                               "start_height": {"type": "integer", "minimum": 1},
                               "seq": _SEQ_SCHEMA},
                "additionalProperties": False,
                "allOf": [
                    {"if": {"properties": {"kind": {"const": "constant"}}},
                     "then": {"required": ["p"]}},
                    {"if": {"properties": {"kind": {"enum": ["from-seq",
                                                             "shifted"]}}},
                     "then": {"required": ["seq"]}}]},
            "k_range": {"type": "array", "items": {"type": "integer",
                                                   "minimum": 0},
                        "minItems": 2, "maxItems": 2},
            "kappa": {"type": "integer", "minimum": 0}},
        "additionalProperties": False,
    },
    "linsys": {
        "type": "object",
        "required": ["seq", "dimension", "horizon", "delta"],
        "properties": {"seq": _SEQ_SCHEMA,
                       "dimension": {"type": "integer", "minimum": 2},
                       "horizon": {"type": "integer", "minimum": 0},
                       "delta": _FRAC, "rho0": _FRAC,
                       "witness_theta": _FRAC,
                       "mc": {"type": "object",
                              "required": ["samples"],
                              "properties": {"samples": {"type": "integer",
                                                         "minimum": 1},
                                             "gamma_scale": {"type": "number"}},
                              "additionalProperties": False}},
        "additionalProperties": False,
    },
    "bohr": {
        "type": "object",
        "required": ["r", "n_max", "eps"],
        "properties": {"r": {"type": "integer", "minimum": 1},
                       "n_max": {"type": "integer", "minimum": 2},
                       "eps": _FRAC,
                       "h1": {"type": "integer", "minimum": 3},
                       "horizon": {"type": "integer", "minimum": 0},
                       "probe": {"type": "object",
                                 "required": ["rotations", "eps"],
                                 "properties": {"rotations": {"type": "array",
                                                              "items": _FRAC,
                                                              "minItems": 1},
                                                "eps": _FRAC},
                                 "additionalProperties": False}},
        "additionalProperties": False,
    },
    "gauss": {
        "type": "object",
        "required": ["kahane", "rectangle", "blocks", "side", "max_index",
                     "samples"],
        "properties": {
            "kahane": {"type": "object",
                       "required": ["seq", "stages", "targets"],
                       "properties": {"seq": _SEQ_SCHEMA,
                                      "stages": {"type": "integer",
                                                 "minimum": 1},
                                      "targets": _TARGETS_SCHEMA},
                       "additionalProperties": False},
            "rectangle": {"type": "array", "items": {"type": "number"},
                          "minItems": 4, "maxItems": 4},
            "blocks": {"type": "integer", "minimum": 1},
            "side": {"enum": ["A", "B"]},
            "max_index": {"type": "integer", "minimum": 1},
            "samples": {"type": "integer", "minimum": 1000}},
        "additionalProperties": False,
    },
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema", "kind", "params"],
    "properties": {
        "schema": {"const": SCHEMA},
        "kind": {"enum": list(KINDS)},
        "params": {"type": "object"},
        "bits": {"type": "integer", "minimum": MIN_BITS},
        "seed": {"type": "integer", "minimum": 0},
        "out": {"type": "string"},
    },
    "additionalProperties": False,
}


# JSON Schema types with their Draft 2020-12 meaning, except that "integer"
# excludes 3.0: the handlers need a Python int
_TYPES = {"integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
          "number": lambda x: isinstance(x, numbers.Number)
          and not isinstance(x, bool),
          "string": lambda x: isinstance(x, str),
          "array": lambda x: isinstance(x, list),
          "object": lambda x: isinstance(x, dict)}
# the keywords that ``_violation`` reads; the schemas above use no others
SCHEMA_KEYWORDS = frozenset({
    "type", "const", "enum", "minimum", "maximum", "minItems", "maxItems",
    "items", "required", "properties", "additionalProperties", "oneOf",
    "allOf", "if", "then"})


def _violation(schema: dict, x, path: tuple = ()) -> tuple[tuple, str] | None:
    """The first way ``x`` breaks ``schema``, as (key path, message), or None.
    ``const`` and ``enum`` values are strings, so ``==`` is JSON equality;
    ``additionalProperties`` is only ever false."""
    t = schema.get("type")
    if t is not None:
        names = [t] if isinstance(t, str) else t
        if not any(_TYPES[n](x) for n in names):
            return path, f"{x!r} is not of type {', '.join(map(repr, names))}"
    if "const" in schema and x != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if "enum" in schema and x not in schema["enum"]:
        return path, f"{x!r} is not one of {schema['enum']!r}"
    if _TYPES["number"](x):
        if "minimum" in schema and x < schema["minimum"]:
            return path, f"{x!r} is less than the minimum of {schema['minimum']}"
        if "maximum" in schema and x > schema["maximum"]:
            return path, f"{x!r} is greater than the maximum of {schema['maximum']}"
    if isinstance(x, list):
        if len(x) < schema.get("minItems", 0):
            return path, f"{x!r} has fewer than {schema['minItems']} items"
        if len(x) > schema.get("maxItems", len(x)):
            return path, f"{x!r} has more than {schema['maxItems']} items"
        for i, v in enumerate(x if "items" in schema else ()):
            if err := _violation(schema["items"], v, (*path, i)):
                return err
    if isinstance(x, dict):
        for key in schema.get("required", ()):
            if key not in x:
                return path, f"{key!r} is a required property"
        props = schema.get("properties", {})
        for key, v in x.items():
            if key in props:
                if err := _violation(props[key], v, (*path, key)):
                    return err
            elif "additionalProperties" in schema:
                return path, f"{key!r} is not an allowed property"
    for sub in schema.get("allOf", ()):
        if err := _violation(sub, x, path):
            return err
    if "if" in schema and _violation(schema["if"], x) is None:
        if err := _violation(schema.get("then", {}), x, path):
            return err
    if "oneOf" in schema:
        branches = schema["oneOf"]
        valid = sum(_violation(s, x) is None for s in branches)
        if valid == 0:
            # the one branch of x's JSON type says what is wrong inside x
            typed = [s for s in branches
                     if "type" in s and not _violation({"type": s["type"]}, x)]
            if len(typed) == 1:
                return _violation(typed[0], x, path)
            return path, f"{x!r} is not valid under any of the given schemas"
        if valid > 1:
            return path, f"{x!r} is valid under more than one of the given schemas"
    return None


class ConfigError(ValueError):
    pass


def _frac(x) -> Fraction:
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def _seq_of(spec: dict) -> IntegerSequence:
    name, count = spec["name"], spec["count"]
    if name == "triangular-pow2":
        return triangular_pow2(count)
    if name == "divisibility":
        ratios = spec.get("ratios") or [spec.get("ratio", 2)] * (count - 1)
        return gen_divisibility(spec.get("base", 2), ratios, count)
    if name == "recursive-q":
        return gen_recursive_q(spec.get("q", 3), count)
    if name == "chacon":
        return gen_recursive_q(3, count)
    return naturals(count)


def _targets_of(spec, count: int) -> list[Fraction]:
    if isinstance(spec, list):
        if len(spec) < count:
            raise ConfigError(f"need {count} targets, config has {len(spec)}")
        return [_frac(x) for x in spec]
    if spec["rule"] == "inverse-linear":
        return [Fraction(1, k + 1) for k in range(count)]
    return [Fraction(1, 2 ** spec["log2"])] * count


@dataclass
class ExperimentConfig:
    kind: str
    params: dict
    bits: int = 53
    seed: int = 0
    out: str | None = None

    @staticmethod
    def from_dict(data: dict) -> "ExperimentConfig":
        err = (_violation(CONFIG_SCHEMA, data)
               or _violation(PARAMS_SCHEMAS[data["kind"]], data["params"],
                             ("params",)))
        if err:
            path, message = err
            where = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                            for p in path).lstrip(".")
            raise ConfigError("config schema violation"
                              + (f" at {where}" if where else "")
                              + f": {message}")
        return ExperimentConfig(kind=data["kind"], params=data["params"],
                                bits=data.get("bits", 53),
                                seed=data.get("seed", 0),
                                out=data.get("out"))

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "kind": self.kind,
                "params": encode_value(self.params), "bits": self.bits,
                "seed": self.seed, "out": self.out or "."}


# ---------------------------------------------------------------------------
# experiment handlers: params -> (certificates, report values, csv files);
# a certificate is a Certificate or its encoded dict
# ---------------------------------------------------------------------------

def _csv(header: str, rows) -> Iterator[str]:
    yield header + "\n"
    for row in rows:
        yield ",".join(str(c) for c in row) + "\n"


def _dist_cols(b) -> tuple[str, str, str]:
    return b.dec(17), frac_str(b.lo), frac_str(b.hi)


def _chord_rows(theta: Fraction, terms: list[int],
                with_residue: bool = False) -> Iterator[tuple]:
    """Rows ``k, n_k, [n_k theta mod 1,] dist, dist_lo, dist_hi`` of
    ``|e^{2 pi i n_k theta} - 1|``, one chord per distinct residue distance.
    Lazy: the chords take the precision current when the rows are read."""
    cols = {}
    for k, (n, d) in enumerate(zip(terms, distance_numerators(theta, terms))):
        if d not in cols:
            cols[d] = _dist_cols(chord(Fraction(d, theta.denominator)))
        res = (frac_str(residue(theta, n)),) if with_residue else ()
        yield (k, n, *res, *cols[d])


def _run_jamison(params, *, bits, seed):
    seq = _seq_of(params["seq"])
    eps = _frac(params["epsilon"])
    K = params["horizon"]
    rep = jamison_separation_test(seq, eps, K, grid=params.get("grid", 0))
    expect = params.get("expect", "scan")
    ok = {"witness": rep.witness_found,
          "separation": not rep.witness_found,
          "scan": True}[expect]
    verdict = (f"found lambda != 1 with horizon-{K} sup < {eps}"
               if rep.witness_found else "no small-sup witness found")
    cert = Certificate(
        kind="jamison-scan",
        claim=f"{verdict} on {seq.label} (expected: {expect})",
        passed=ok,
        exact=False,
        method=rep.method,
        horizon=K,
        params={"epsilon": eps, "grid": rep.grid, "expect": expect,
                "candidates_checked": rep.candidates_checked},
        bounds={"sup": rep.sup} if rep.sup is not None else {},
        values={"witness_found": rep.witness_found,
                "best_theta": frac_str(rep.best_theta)
                if rep.best_theta is not None else None})
    rows = _chord_rows(rep.best_theta, seq.prefix(K + 1)) if rep.witness_found else ()
    files = {"scan.csv": _csv("k,n_k,dist,dist_lo,dist_hi", rows)}
    return [cert], {"witness_found": rep.witness_found}, files


def _run_witness(params, *, bits, seed):
    seq = _seq_of(params["seq"])
    theta = _frac(params["theta"])
    K = params["horizon"]
    target = params.get("target")
    wit = verify_witness(theta, seq, K,
                         target=_frac(target) if target is not None else None)
    rows = _chord_rows(theta, seq.prefix(K + 1), with_residue=True)
    files = {"residues.csv": _csv("k,n_k,residue,dist,dist_lo,dist_hi", rows)}
    return [wit.to_certificate()], {"delta": wit.delta}, files


def _run_kahane(params, *, bits, seed):
    seq = _seq_of(params["seq"])
    N = params["stages"]
    K = params.get("horizon", N - 1)
    targets = _targets_of(params["targets"], max(N, K + 1))
    fact = kahane_build(seq, targets, N)
    check = rigidity_check(fact, seq, targets, K)
    rows = [(k, seq.term(k), frac_str(targets[k]),
             *_dist_cols(check.bounds[f"dev_k{k}"])) for k in range(K + 1)]
    files = {"fourier.csv": _csv("k,n_k,target,dev,dev_lo,dev_hi", rows)}
    return [fact.certificate, check], {"stages": N}, files


def _schedule_of(spec: dict) -> StackingSchedule:
    kind = spec["kind"]
    rounds = spec.get("rounds", 8)
    if kind == "chacon":
        return StackingSchedule.chacon(rounds)
    if kind == "constant":
        return StackingSchedule.constant(spec["p"], spec.get("r", 1),
                                         spec.get("start_height", 1), rounds)
    if kind == "from-seq":
        return StackingSchedule.from_sequence(_seq_of(spec["seq"]), rounds)
    return shifted_schedule(_seq_of(spec["seq"]), spec.get("p", 1),
                            rounds=spec.get("rounds"))


def _run_rankone(params, *, bits, seed):
    schedule = _schedule_of(params["schedule"])
    k_lo, k_hi = params["k_range"]
    if k_lo > k_hi or k_lo < 1:
        raise ConfigError("k_range must satisfy 1 <= lo <= hi")
    certs, rows = [], []
    for k in range(k_lo, k_hi + 1):
        rep = nonrecurrence_check(schedule, k, kappa=params.get("kappa"))
        certs.append(rep.to_certificate())
        rows.append((k, rep.power, frac_str(rep.overlap.total),
                     frac_str(rep.overlap_c.total), frac_str(rep.escaped),
                     frac_str(rep.mass_A), frac_str(rep.mass_checked),
                     frac_str(rep.mass_C)))
    files = {"overlaps.csv": _csv(
        "k,power,overlap,overlap_c,escaped,mass_A,mass_checked,mass_C", rows)}
    stage = rep.build.stages[-1]        # the check's own build, stage k_hi + 1
    un, ud, width = stage.unit.numerator, stage.unit.denominator, frac_str(stage.width)
    # level j starts at x * unit = n/d in lowest terms, and that Fraction's float() is n / d
    terms = ((x * un // g, ud // g) for x in stage.starts for g in (math.gcd(x * un, ud),))
    lvl = ((j, n / d, f"{n}/{d}", width, int(j in stage.red)) for j, (n, d) in enumerate(terms))
    files["levels.csv"] = _csv("level,lo,lo_frac,width_frac,red", lvl)
    return certs, {"heights": schedule.heights()[:k_hi + 2]}, files


def _run_linsys(params, *, bits, seed):
    seq = _seq_of(params["seq"])
    N, K = params["dimension"], params["horizon"]
    try:
        build = build_operator(seq, N, K, _frac(params["delta"]),
                               rho0=_frac(params.get("rho0", "1/4")), bits=bits)
    except PrecisionError as e:
        return [Certificate(kind="power-norms", passed=False, horizon=K,
                            claim=f"sup of ||T^(n_k) - I|| over {seq.label}, "
                                  f"dimension {N}", values={"error": str(e)})], {}, {}
    certs = [build.norms.to_certificate()]
    values = {"rho": build.rho, "halvings": build.halvings,
              "operator": build.operator.to_json_dict()}
    files = {"norms.csv": [norm_table_csv(build.norms)]}
    theta0 = params.get("witness_theta")
    if theta0 is not None:
        theta0 = _frac(theta0)
        wit = verify_witness(theta0, seq, K)
        ball = ball_certificate(wit.delta, build.norms)
        if ball is None:
            certs.append(Certificate(
                kind="ball-disjoint", passed=False, horizon=K,
                claim=f"S^(n_k) U_gamma and U_gamma disjoint over {seq.label}",
                values={"error": "norm sup c is not below the witness delta"}))
            return certs, values, files
        certs.append(ball.to_certificate())
        values["gamma_max"] = ball.gamma_max
        mc = params.get("mc")
        if mc is not None:
            gamma = float(ball.gamma_max) * mc.get("gamma_scale", 0.9)
            samp = ball_mc_check(build.operator, theta0, seq, K, gamma,
                                 samples=mc["samples"], seed=seed)
            certs.append(Certificate(
                kind="ball-sample",
                claim=f"{samp.samples} random points of the {gamma:.6g}-ball "
                      f"all move by more than 2 gamma",
                passed=samp.passed,
                exact=False,
                method="seeded uniform ball sampling, float64 matrix powers",
                horizon=K,
                params={"samples": samp.samples, "seed": seed,
                        "gamma": gamma},
                values={"min_margin": samp.min_margin,
                        "threshold": samp.threshold}))
    return certs, values, files


def _run_bohr(params, *, bits, seed):
    seeds = BohrSeeds(h1=params["h1"]) if "h1" in params else None
    bset = BohrSet(schedule_build(params["r"], params["n_max"], seeds))
    eps = _frac(params["eps"])
    K = params.get("horizon")
    certs, wit_rows = [], []
    for fam in bset.families():
        small = block_jamison_witness(bset, fam, eps, K)
        certs.append(small.to_certificate())
        wit_rows.append((family_label(fam), "small-sup", frac_str(small.theta),
                         small.sup.dec(17), int(small.passed)))
    for lab, rot in all_rotation_witnesses(bset, K).items():
        certs.append(rot.to_certificate())
        wit_rows.append((lab, "separation", frac_str(rot.theta.exact),
                         rot.delta.dec(17), int(bool(rot.meets_target))))
    certs = [c.to_dict() for c in certs]    # for the union and for ``run``
    combined = combine_union(
        certs,
        claim=f"merged r={params['r']} block set to depth {params['n_max']}: "
              f"small-sup (eps={eps}) and separation (>1/2) per family")
    combined.values["elements"] = bset.merged
    certs.append(combined)
    blk = [(N, lab, x) for (N, lab), xs in sorted(bset.blocks.items())
           for x in xs]
    files = {"blocks.csv": _csv("N,family,element", blk),
             "witnesses.csv": _csv("family,type,theta,bound,passed", wit_rows)}
    values = {"merged": bset.merged, "H": bset.schedule.H}
    probe = params.get("probe")
    if probe is not None:
        rep = bohr_recurrence_probe(bset, [_frac(x) for x in probe["rotations"]],
                                    _frac(probe["eps"]))
        files["probe.csv"] = [probe_csv([rep])]
        values["probe"] = {"found": rep.found, "element": rep.element,
                           "scanned": rep.scanned}
    return certs, values, files


def _run_gauss(params, *, bits, seed):
    kp = params["kahane"]
    seq = _seq_of(kp["seq"])
    targets = _targets_of(kp["targets"], kp["stages"])
    fact = kahane_build(seq, targets, kp["stages"])
    split = fact42_split(params["blocks"])
    indices = split.side_indices(params["side"], params["max_index"])
    if not indices:
        raise ConfigError("no indices of that side within max_index")
    model = GaussianRectangleModel(fact, tuple(params["rectangle"]),
                                   seed=seed)
    rows, closed_ok = [], True
    worst_ratio = 0.0
    for k in indices:
        a_k = targets[k] if k < len(targets) else targets[-1]
        est = gauss_rectangle_overlap_mc(model, seq.term(k), params["samples"])
        closed_ok = closed_ok and (
            abs(est.second_moment - est.second_moment_closed)
            <= 4 * est.second_moment_se + 1e-12
            and abs(est.shift_moment - est.shift_moment_closed)
            <= 4 * est.shift_moment_se + 1e-12)
        worst_ratio = max(worst_ratio,
                          est.sym_diff / float(a_k) ** (1 / 3))
        rows.append((k, seq.term(k), frac_str(a_k), est.p_in, est.p_in_se,
                     est.sym_diff, est.sym_diff_se, est.second_moment,
                     est.second_moment_se, est.second_moment_closed,
                     est.shift_moment, est.shift_moment_se,
                     est.shift_moment_closed))
    cert = Certificate(
        kind="gauss-overlap-mc",
        claim=f"sampled moments match closed forms within 4 standard errors "
              f"at {len(indices)} shift indices",
        passed=closed_ok,
        exact=False,
        method="seeded Monte-Carlo sampling of the 2x2 covariance of (f, f_n), "
               "gamma from the certified product formula",
        horizon=max(indices),
        params={"samples": params["samples"], "seed": seed,
                "side": params["side"], "indices": indices},
        values={"max_symdiff_over_cuberoot": worst_ratio})
    files = {"gauss.csv": _csv(
        "k,n_k,a_k,p_in,p_in_se,sym_diff,sym_diff_se,second_moment,"
        "second_moment_se,second_moment_closed,shift_moment,shift_moment_se,"
        "shift_moment_closed", rows)}
    return [cert], {"atoms": len(fact)}, files


_HANDLERS = {"jamison": _run_jamison, "witness": _run_witness,
             "kahane": _run_kahane, "rankone": _run_rankone,
             "linsys": _run_linsys, "bohr": _run_bohr, "gauss": _run_gauss}


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment; returns the report dict after writing it.
    Tables are iterables of lines, lazy ones included, so they are written
    inside ``working_bits``; each certificate is encoded once, and a
    handler may return some already encoded (``Certificate.to_dict``)."""
    out = Path(out_dir or config.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    with working_bits(config.bits):
        certs, values, files = _HANDLERS[config.kind](
            config.params, bits=config.bits, seed=config.seed)
        for name, lines in sorted(files.items()):
            with open(out / name, "w") as f:
                f.writelines(lines)
            outputs.append(name)
    cert_dicts = [c if isinstance(c, dict) else c.to_dict() for c in certs]
    for i, data in enumerate(cert_dicts):
        name = f"cert-{i:02d}-{data['kind']}.json"
        (out / name).write_text(dump_json(data))
        outputs.append(name)
    report = {
        "schema": SCHEMA,
        "kind": config.kind,
        "config": config.to_dict(),
        "passed": all(c["passed"] for c in cert_dicts),
        "certificates": cert_dicts,
        "values": encode_value(values),
        "outputs": outputs,
    }
    (out / "report.json").write_text(dump_json(report))
    return report


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="recurlab",
        description="certified non-recurrence experiments")
    sub = p.add_subparsers(dest="command", required=True)

    for kind in KINDS:
        sp = sub.add_parser(kind, help=f"run a {kind} experiment")
        sp.add_argument("--config", required=True, help="experiment JSON")
        sp.add_argument("--bits", type=int, help="working precision override")
        sp.add_argument("--seed", type=int, help="RNG seed override")
        sp.add_argument("--out", help="output directory override")
        sp.add_argument("--horizon", type=int,
                        help="override the kind's horizon parameter")

    gs = sub.add_parser("gen-seq", help="print a sequence prefix as CSV")
    gs.add_argument("--name", required=True,
                    choices=["triangular-pow2", "divisibility", "recursive-q",
                             "chacon", "naturals"])
    gs.add_argument("--count", required=True, type=int)
    gs.add_argument("--base", type=int, default=2)
    gs.add_argument("--ratio", type=int, default=2)
    gs.add_argument("--q", type=int, default=3)
    gs.add_argument("--out", help="write sequence.csv here instead of stdout")

    cb = sub.add_parser("combine", help="union of passing certificates")
    cb.add_argument("paths", nargs="+", help="certificate JSON files")
    cb.add_argument("--claim", help="claim text for the combined certificate")
    cb.add_argument("--out", default=".", help="output directory")

    rp = sub.add_parser("report", help="summarize a report or certificate")
    rp.add_argument("path")
    return p


def _cmd_experiment(args) -> int:
    path = Path(args.config)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from e
    # overrides go into the raw config, so the schema checks what will run
    if isinstance(data, dict):
        if data.get("kind", args.command) != args.command:
            raise ConfigError(f"config kind {data['kind']!r} does not match "
                              f"subcommand {args.command!r}")
        for key in ("bits", "seed", "out"):
            if getattr(args, key) is not None:
                data[key] = getattr(args, key)
        params = data.get("params")
        if args.horizon is not None and isinstance(params, dict):
            k_range = params.get("k_range")
            if args.command != "rankone":
                params["horizon"] = args.horizon
            elif isinstance(k_range, list) and k_range:
                params["k_range"] = [k_range[0], args.horizon]
    config = ExperimentConfig.from_dict(data)
    report = run(config)
    flag = "PASS" if report["passed"] else "FAIL"
    print(f"[{flag}] {config.kind}: {len(report['certificates'])} "
          f"certificate(s) -> {Path(config.out or '.') / 'report.json'}")
    for c in report["certificates"]:
        print(f"  [{'PASS' if c['passed'] else 'FAIL'}] {c['kind']}: {c['claim']}")
    return 0 if report["passed"] else 1


def _cmd_gen_seq(args) -> int:
    spec = {"name": args.name, "count": args.count, "base": args.base,
            "ratio": args.ratio, "q": args.q}
    seq = _seq_of(spec)
    text = "".join(_csv("k,n_k", [(k, seq.term(k)) for k in range(args.count)]))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "sequence.csv").write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_combine(args) -> int:
    reports = [load_report(p) for p in args.paths]
    failing = [p for p, r in zip(args.paths, reports) if not r.get("passed")]
    if failing:
        print("cannot combine: failing components:", ", ".join(failing),
              file=sys.stderr)
        return 1
    for rep in reports:
        # run reports carry no top-level claim; summarize their contents
        if "claim" not in rep and "certificates" in rep:
            rep["claim"] = f"{len(rep['certificates'])} certificate(s)"
            rep["exact"] = all(c.get("exact") for c in rep["certificates"])
            merged = sorted({int(e) for c in rep["certificates"]
                             for e in (c.get("values") or {}).get("elements", [])})
            if merged:
                rep["values"] = {"elements": merged}
    cert = combine_union(reports, claim=args.claim)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = cert.save(out / "combined.json")
    print(summarize(cert.to_dict()))
    print(f"-> {path}")
    return 0


def _cmd_report(args) -> int:
    data = load_report(args.path)
    if "certificates" in data:
        print(f"kind:   {data.get('kind')}")
        print(f"passed: {data.get('passed')}")
        for c in data["certificates"]:
            flag = "PASS" if c.get("passed") else "FAIL"
            print(f"  [{flag}] {c.get('kind')}: {c.get('claim')}")
        return 0 if data.get("passed") else 1
    print(summarize(data))
    return 0 if data.get("passed") else 1


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command in KINDS:
            return _cmd_experiment(args)
        if args.command == "gen-seq":
            return _cmd_gen_seq(args)
        if args.command == "combine":
            return _cmd_combine(args)
        return _cmd_report(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as e:
        print(f"error in {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
