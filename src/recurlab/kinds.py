"""The experiment handlers of the seven CLI kinds, and the helpers only
they use.

A handler maps a validated config's params to (certificates, report
values, csv files); a certificate is a Certificate or its encoded dict,
and a csv file is an iterable of lines, lazy ones included.  ``cli.run``
dispatches through ``_HANDLERS``.  This module imports only
``certificates`` and ``seqcore``, and each handler imports its layers in
its body, so a run loads only the modules its kind lists in
``cli.KIND_MODULES``.  The handlers live apart from the config contract
because a run without compiled bytecode compiles every module it
imports, and the largest single compile sets the start-up peak RSS.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .certificates import Certificate, combine_union, frac_str
from .seqcore import (IntegerSequence, fact42_split, gen_divisibility,
                      gen_recursive_q, naturals, triangular_pow2)


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


def _csv(header: str, rows) -> Iterator[str]:
    yield header + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _lines(header: str, lines) -> Iterator[str]:
    """A table whose rows are finished lines."""
    yield header + "\n"
    yield from lines


def _dist_cols(b) -> tuple[str, str, str]:
    return b.dec(17), frac_str(b.lo), frac_str(b.hi)


def _chord_rows(theta: Fraction, terms: list[int],
                with_residue: bool = False) -> Iterator[str]:
    """Lines ``k,n_k,[n_k theta mod 1,]dist,dist_lo,dist_hi`` of
    ``|e^{2 pi i n_k theta} - 1|``; the last three columns are formatted
    once per distinct residue distance.  Lazy: the chords take the
    precision current when the lines are read."""
    from .precision import chord, distance_numerators, residue
    q = theta.denominator
    cols = {}
    for k, (n, d) in enumerate(zip(terms, distance_numerators(theta, terms))):
        c = cols.get(d)
        if c is None:
            c = cols[d] = ",".join(_dist_cols(chord(Fraction(d, q))))
        if with_residue:
            yield f"{k},{n},{frac_str(residue(theta, n))},{c}\n"
        else:
            yield f"{k},{n},{c}\n"


def _run_jamison(params, *, bits, seed):
    from .circle import jamison_separation_test
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
    files = {"scan.csv": _lines("k,n_k,dist,dist_lo,dist_hi", rows)}
    return [cert], {"witness_found": rep.witness_found}, files


def _run_witness(params, *, bits, seed):
    from .circle import verify_witness
    seq = _seq_of(params["seq"])
    theta = _frac(params["theta"])
    K = params["horizon"]
    target = params.get("target")
    wit = verify_witness(theta, seq, K,
                         target=_frac(target) if target is not None else None)
    rows = _chord_rows(theta, seq.prefix(K + 1), with_residue=True)
    files = {"residues.csv": _lines("k,n_k,residue,dist,dist_lo,dist_hi", rows)}
    return [wit.to_certificate()], {"delta": wit.delta}, files


def _run_kahane(params, *, bits, seed):
    from .specmeasure import kahane_build, rigidity_check
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


def _schedule_of(spec: dict):
    from .rankone import StackingSchedule, shifted_schedule
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
    from .rankone import nonrecurrence_check
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
    red = stage.red
    lvl = (f"{j},{n / d},{n}/{d},{width},{int(j in red)}\n" for j, (n, d) in enumerate(terms))
    files["levels.csv"] = _lines("level,lo,lo_frac,width_frac,red", lvl)
    return certs, {"heights": schedule.heights()[:k_hi + 2]}, files


def _run_linsys(params, *, bits, seed):
    from .circle import verify_witness
    from .linsys import (WeightTuningError, ball_certificate, ball_mc_check,
                         build_operator, norm_table_csv)
    seq = _seq_of(params["seq"])
    N, K = params["dimension"], params["horizon"]
    delta = _frac(params["delta"])
    try:
        build = build_operator(seq, N, K, delta, bits=bits)
    except WeightTuningError as e:
        return [Certificate(
            kind="power-norms", passed=False, horizon=K,
            claim=f"sup of ||T^(n_k) - I|| over {seq.label}, k in [0, {K}], "
                  f"dimension {N}",
            params={"delta": frac_str(delta), "dimension": N},
            values={"error": str(e)})], {}, {}
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
            gamma = float(ball.gamma_max) * 0.9     # inside the certified ball
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
    from .bohrgen import (BohrSet, all_rotation_witnesses,
                          block_jamison_witness, bohr_recurrence_probe,
                          family_label, probe_csv, schedule_build)
    bset = BohrSet(schedule_build(params["r"], params["n_max"], params.get("h1", 6)))
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
    from .specmeasure import (GaussianRectangleModel,
                              gauss_rectangle_overlap_mc, kahane_build)
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
    return [cert], {"atoms": fact.atom_count()}, files


# ``cli.run`` indexes this very dict, and perfbench's tracer wraps its
# values in place, so it holds the handler functions themselves
_HANDLERS = {"jamison": _run_jamison, "witness": _run_witness,
             "kahane": _run_kahane, "rankone": _run_rankone,
             "linsys": _run_linsys, "bohr": _run_bohr, "gauss": _run_gauss}
