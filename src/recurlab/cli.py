"""Config-driven experiment runner.

One experiment = one config file = one output directory.  A config is a
JSON object (schema "recurlab/1") naming an experiment kind, its module
parameters, working precision, and RNG seed; ``run`` executes the
pipeline and writes a report.json, one JSON file per certificate, and
plot-ready CSV tables.  The report embeds the config as run: ``params``
as given, after flag overrides, with ``bits``, ``seed`` and ``out``
filled in.  Parameter defaults live in the handlers (``kinds``), so
re-running from the report alone reproduces every number bit for bit.
Tables are streamed to disk line by line, at the config's working
precision.  Configs are checked against ``CONFIG_SCHEMA`` and
``PARAMS_SCHEMAS`` by ``_violation``, which reads the JSON Schema keywords
in ``SCHEMA_KEYWORDS``; an error names the key path.  The module itself
imports only ``certificates`` and ``kinds``, which imports only
``certificates`` and ``seqcore``: a config that validates loads the layer
modules of its kind (``KIND_MODULES``), so a ``rankone`` run never loads
mpmath or numpy, and only ``jamison`` and ``gauss`` runs, and ``linsys``
runs with the ``mc`` spot check, load numpy.

Exit codes: 0 when every certificate passes, 1 when some fail, 2 for
configuration or usage errors.  CSV numeric columns carry decimal
strings at recorded precision; exact rationals appear additionally as
"p/q".
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import numbers
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from .certificates import (SCHEMA, combine_union, dump_json, encode_value,
                           load_report, summarize)
from .kinds import _HANDLERS, ConfigError, _csv, _seq_of

KINDS = ("jamison", "witness", "kahane", "rankone", "linsys", "bohr", "gauss")

# the modules each kind's handler runs, package layers written relative;
# a pair (key, module) is loaded only when the params hold that key.
# numpy is there where floats are the point: the jamison grid scan and
# polish, the gauss sampler, and the float ball spot check of a linsys run
# with ``mc`` (circle, specmeasure and linsys import numpy inside those
# functions, so witness, kahane and bohr runs, and linsys runs without
# ``mc``, load none).  The two Monte-Carlo routes draw from the standard
# library's ``random`` (``precision.seeded_uniforms``), so no kind loads
# numpy.random nor the OpenSSL bindings it pulls in.
# ``from_dict`` imports them, so their cost falls in set-up and ``run``
# loads nothing; ``run`` enters the working precision only for the kinds
# that load ``precision``
KIND_MODULES = {"jamison": (".precision", ".circle", "numpy"),
                "witness": (".precision", ".circle"),
                "kahane": (".precision", ".specmeasure"),
                "rankone": (".rankone",),
                "linsys": (".precision", ".circle", ".linsys", ("mc", "numpy"),
                           ("mc", "random")),
                "bohr": (".precision", ".bohrgen"),
                "gauss": (".precision", ".specmeasure", "numpy", "random")}

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
                       # circle.GRID_LIMIT - 1, written out so that the
                       # schema loads no numpy
                       "grid": {"type": "integer", "minimum": 0,
                                "maximum": 2 ** 31 - 1},
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
                       "delta": _FRAC, "witness_theta": _FRAC,
                       "mc": {"type": "object",
                              "required": ["samples"],
                              "properties": {"samples": {"type": "integer",
                                                         "minimum": 1}},
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
        loaded = len(sys.modules)
        for name in KIND_MODULES[data["kind"]]:
            if isinstance(name, tuple):
                key, name = name
                if key not in data["params"]:
                    continue
            importlib.import_module(name, __package__)
        if len(sys.modules) > loaded:
            # the objects an import creates survive into the young
            # generations; collect them here, or the collection they make
            # due falls in the run (about 2 ms of a 13 ms pass over the
            # Chacon tower stages 1..4 with compiled bytecode)
            gc.collect(1)
        return ExperimentConfig(kind=data["kind"], params=data["params"],
                                bits=data.get("bits", 53),
                                seed=data.get("seed", 0),
                                out=data.get("out"))

    def to_dict(self) -> dict:
        return {"schema": SCHEMA, "kind": self.kind,
                "params": encode_value(self.params), "bits": self.bits,
                "seed": self.seed, "out": self.out or "."}


def run(config: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Execute one experiment through its kind's handler in ``_HANDLERS``;
    returns the report dict after writing it.  Tables are iterables of
    lines, lazy ones included, so they are written inside
    ``working_bits``; each certificate is encoded once, and a handler may
    return some already encoded (``Certificate.to_dict``).
    A kind that loads no ``precision`` is exact and runs without a
    working precision."""
    out = Path(out_dir or config.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    scope = nullcontext()
    if ".precision" in KIND_MODULES[config.kind]:
        from .precision import working_bits
        scope = working_bits(config.bits)
    with scope:
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
    # a deep run writes integers past CPython's 4,300-digit str cap
    # (n_k = 2^(k(k+1)/2) from k = 169, a 112-stage kahane atom mass), and
    # the ValueError that the cap raises would exit 2 as if the config were
    # bad; the cap is lifted for the run and restored for the caller (no
    # cap, 0, before CPython 3.10.7)
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
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
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
