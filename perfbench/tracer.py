"""Spans around recurlab's public functions, installed from outside the package.

``install`` replaces each listed function or method at every module
attribute that refers to it (``from .precision import chord`` makes
``recurlab.linsys.chord`` another such attribute), so calls made by name
inside the package pass through the wrapper.  A span records its wall
time and the time of the spans it caused; a span's self time is its
duration minus that child time, and a layer's self time is the sum over
its spans.  Spans are kept as per-name aggregates in memory, not as a
timeline, because the interval layer alone opens about 10^5 of them.

Import this module only in a process that is meant to be traced.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from functools import wraps

LAYERS = ("rankone", "ratintervals", "specmeasure", "linsys", "precision",
          "circle", "seqcore", "bohrgen", "cli", "handler")


class SpanStats:
    __slots__ = ("calls", "inclusive", "self_time", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0      # outermost occurrences only
        self.self_time = 0.0
        self.errors: dict[str, int] = {}
        self.depth = 0


class Tracer:
    def __init__(self):
        self.spans: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = True
        self._child_time: list[float] = []

    def wrap(self, name: str, fn, before=None, after=None):
        """``before(args, kwargs)`` returns a token that ``after(token, args,
        kwargs, result)`` receives once the call has returned."""
        stats = self.spans[name]
        child_time = self._child_time
        clock = time.perf_counter

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = before(args, kwargs) if before else None
            child_time.append(0.0)
            stats.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                kind = type(e).__name__
                stats.errors[kind] = stats.errors.get(kind, 0) + 1
                raise
            finally:
                dt = clock() - t0
                stats.depth -= 1
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dt
                stats.calls += 1
                stats.self_time += dt - inner
                if stats.depth == 0:
                    stats.inclusive += dt
            if after:
                after(token, args, kwargs, result)
            return result

        return wrapper

    # -- reading -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans[name].calls if name in self.spans else 0

    def inclusive(self, name: str) -> float:
        return self.spans[name].inclusive if name in self.spans else 0.0

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.spans.items():
            out[name.split(".", 1)[0]] += st.self_time
        return out

    def table(self) -> dict:
        return {name: {"calls": st.calls, "inclusive_s": st.inclusive,
                       "self_s": st.self_time, "errors": st.errors}
                for name, st in sorted(self.spans.items()) if st.calls}


def _patch_function(tracer: Tracer, modname: str, attr: str, span: str,
                    before=None, after=None) -> None:
    original = getattr(sys.modules[modname], attr)
    wrapper = tracer.wrap(span, original, before, after)
    for name, mod in list(sys.modules.items()):
        if name == "recurlab" or name.startswith("recurlab."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def _patch_method(tracer: Tracer, cls, attr: str, span: str,
                  before=None, after=None) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(span, raw.__func__,
                                                    before, after)))
    else:
        setattr(cls, attr, tracer.wrap(span, raw, before, after))


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer that the CLI paths reach.
    Needs recurlab.cli imported, which imports every other module."""
    from recurlab import (bohrgen, circle, cli, linsys, precision, rankone,
                          ratintervals, seqcore, specmeasure)

    c = tracer.counts

    def fn(module, names, layer=None, **hooks):
        layer = layer or module.__name__.rsplit(".", 1)[1]
        for attr in names:
            _patch_function(tracer, module.__name__, attr, f"{layer}.{attr}",
                            **hooks)

    def meth(cls, names, layer, **hooks):
        for attr in names:
            _patch_method(tracer, cls, attr, f"{layer}.{cls.__name__}.{attr}",
                          **hooks)

    # cli: validation, the runner, and the per-kind handlers it dispatches to
    meth(cli.ExperimentConfig, ["from_dict"], "cli")
    fn(cli, ["run"])
    for kind, handler in list(cli._HANDLERS.items()):
        cli._HANDLERS[kind] = tracer.wrap(f"handler.{kind}", handler)

    # rankone
    def steps(token, args, kwargs, result):
        c["rankone.power_steps"] += args[2] if len(args) > 2 else kwargs["n"]
    fn(rankone, ["power_image"], after=steps)
    fn(rankone, ["build_tower_schedule", "partial_map", "default_kappa",
                 "nonrecurrence_check", "shifted_schedule"])

    # ratintervals: record the largest set any operation returns
    def parts(token, args, kwargs, result):
        if len(result.parts) > c["ratintervals.max_parts"]:
            c["ratintervals.max_parts"] = len(result.parts)
    meth(ratintervals.IntervalSet,
         ["single", "translate", "union", "intersect", "subtract"],
         "ratintervals", after=parts)
    meth(ratintervals.IntervalSet, ["measure", "largest_component"],
         "ratintervals")
    fn(ratintervals, ["remove_ball_mod1", "union_all"], after=parts)

    # specmeasure
    def cache_size(args, kwargs):
        return len(args[0]._cache)

    def cache_hit(token, args, kwargs, result):
        if len(args[0]._cache) == token:
            c["specmeasure.cache_hits"] += 1

    def mc_work(token, args, kwargs, result):
        atoms = len(args[0].measure)
        c["specmeasure.mc_samples"] += result.samples
        # one complex128 Gaussian per (sample, atom): the draw matrix g
        c["specmeasure.mc_bytes_computed"] += result.samples * atoms * 16
    meth(specmeasure.ConvolutionFactorization, ["factor_fourier"],
         "specmeasure", before=cache_size, after=cache_hit)
    meth(specmeasure.ConvolutionFactorization, ["fourier", "materialize"],
         "specmeasure")
    meth(specmeasure.KahaneFactorization, ["chain_term"], "specmeasure")
    fn(specmeasure, ["gauss_rectangle_overlap_mc"], after=mc_work)
    fn(specmeasure, ["convolve", "fourier_direct", "kahane_build",
                     "rigidity_check"])

    # linsys
    def matmuls(args, kwargs):
        op = args[0]
        n = args[1] if len(args) > 1 else kwargs["n"]
        method = args[3] if len(args) > 3 else kwargs.get("method", "auto")
        if n > 0 and not (op.is_diagonal and method == "auto"):
            # binary powering: one product per set bit, one square per
            # further bit; counted before the call because a call that
            # raises PrecisionError has already computed its powers
            c["linsys.matmuls_computed"] += bin(n).count("1") + n.bit_length() - 1

    def build_done(token, args, kwargs, result):
        c["linsys.halvings"] += result.halvings
        c["linsys.rows_kept"] += len(result.norms.rows)
    fn(linsys, ["power_norm"], before=matmuls)
    fn(linsys, ["build_operator"], after=build_done)
    fn(linsys, ["build_j_function", "build_diag_chain", "build_shift_weights",
                "norm_table_csv", "ball_certificate", "ball_mc_check"])

    # precision: the transcendental entry points, with the working precision
    def bits(args, kwargs):
        b = precision.get_bits()
        if b > c["precision.max_bits"]:
            c["precision.max_bits"] = b
    fn(precision, ["chord", "sin_turns", "cos_turns", "pi_bound"], before=bits)

    # circle
    def trials(token, args, kwargs, result):
        c["circle.ladder_trials"] += len(result.trials)

    def candidates(token, args, kwargs, result):
        c["circle.candidates_checked"] += result.candidates_checked
    fn(circle, ["witness_nested_intervals"], after=trials)
    fn(circle, ["jamison_separation_test"], after=candidates)
    fn(circle, ["unimod_dist", "perturb_divisibility", "verify_witness"])

    # seqcore
    fn(seqcore, ["gen_divisibility", "triangular_pow2", "gen_recursive_q",
                 "naturals", "decompose_pk_rk", "fact42_split"])
    meth(seqcore.IntegerSequence, ["__init__", "extend_to", "term", "prefix"],
         "seqcore")
    meth(seqcore.SplitterOutput, ["side_indices", "check_all"], "seqcore")

    # bohrgen
    def scanned(token, args, kwargs, result):
        c["bohrgen.probe_scanned"] += result.scanned
    fn(bohrgen, ["bohr_recurrence_probe"], after=scanned)
    fn(bohrgen, ["schedule_build", "block_jamison_witness",
                 "block_rotation_witness", "all_rotation_witnesses",
                 "probe_csv"])
    meth(bohrgen.BohrSet, ["__init__", "families", "family_elements"],
         "bohrgen")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced pass yields (see BENCHMARK.json)."""
    t, c = tracer, tracer.counts
    own = t.layer_self()
    fourier = t.calls("specmeasure.ConvolutionFactorization.factor_fourier")
    mc_s = t.inclusive("specmeasure.gauss_rectangle_overlap_mc")
    norm_calls = t.calls("linsys.power_norm")
    trig = ["precision.chord", "precision.sin_turns", "precision.cos_turns",
            "precision.pi_bound"]
    ivs = "ratintervals.IntervalSet."
    return {
        "rankone.build_s": t.inclusive("rankone.build_tower_schedule"),
        "rankone.power_image_s": t.inclusive("rankone.power_image"),
        "rankone.power_steps": c["rankone.power_steps"],
        "rankone.self_s": own["rankone"],
        "ratintervals.self_s": own["ratintervals"],
        "ratintervals.intersect_calls": t.calls(ivs + "intersect"),
        "ratintervals.subtract_calls": t.calls(ivs + "subtract"),
        "ratintervals.union_calls": (t.calls(ivs + "union")
                                     + t.calls("ratintervals.union_all")),
        "ratintervals.max_parts": c["ratintervals.max_parts"],
        "specmeasure.build_s": t.inclusive("specmeasure.kahane_build"),
        "specmeasure.materialize_s": t.inclusive(
            "specmeasure.ConvolutionFactorization.materialize"),
        "specmeasure.mc_s": mc_s,
        "specmeasure.mc_samples_per_s": (c["specmeasure.mc_samples"] / mc_s
                                         if mc_s else 0.0),
        "specmeasure.mc_bytes_computed": c["specmeasure.mc_bytes_computed"],
        "specmeasure.fourier_calls": fourier,
        "specmeasure.cache_hit_ratio": (c["specmeasure.cache_hits"] / fourier
                                        if fourier else 0.0),
        "specmeasure.self_s": own["specmeasure"],
        "linsys.power_norm_s": t.inclusive("linsys.power_norm"),
        "linsys.power_norm_calls": norm_calls,
        "linsys.rows_per_call": (c["linsys.rows_kept"] / norm_calls
                                 if norm_calls else 0.0),
        "linsys.halvings": c["linsys.halvings"],
        "linsys.matmuls_computed": c["linsys.matmuls_computed"],
        "linsys.precision_errors": (t.spans["linsys.power_norm"].errors
                                    .get("PrecisionError", 0)
                                    if "linsys.power_norm" in t.spans else 0),
        "linsys.ball_mc_s": t.inclusive("linsys.ball_mc_check"),
        "linsys.self_s": own["linsys"],
        "precision.trig_calls": sum(t.calls(n) for n in trig),
        "precision.trig_s": sum(t.inclusive(n) for n in trig),
        "precision.max_bits": c["precision.max_bits"],
        "precision.self_s": own["precision"],
        "circle.witness_search_s": t.inclusive("circle.witness_nested_intervals"),
        "circle.scan_s": t.inclusive("circle.jamison_separation_test"),
        "circle.ladder_trials": c["circle.ladder_trials"],
        "circle.candidates_checked": c["circle.candidates_checked"],
        "circle.self_s": own["circle"],
        "seqcore.self_s": own["seqcore"],
        "seqcore.calls": sum(st.calls for n, st in t.spans.items()
                             if n.startswith("seqcore.")),
        "bohrgen.self_s": own["bohrgen"],
        "bohrgen.probe_scanned": c["bohrgen.probe_scanned"],
        "cli.validate_s": t.inclusive("cli.ExperimentConfig.from_dict"),
        "cli.self_s": t.spans["cli.run"].self_time if "cli.run" in t.spans else 0.0,
        "cli.handler_self_s": own["handler"],
    }
