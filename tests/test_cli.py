"""End-to-end runs of the experiment runner on small configs."""

import contextlib
import copy
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from recurlab.certificates import Certificate
from recurlab.cli import (_TYPES, CONFIG_SCHEMA, KINDS, PARAMS_SCHEMAS,
                          SCHEMA, SCHEMA_KEYWORDS, ConfigError,
                          ExperimentConfig, _violation, main, run)
from recurlab.precision import Bound, get_bits
from recurlab.specmeasure import ConvolutionFactorization

TRI13 = {"name": "triangular-pow2", "count": 13}


def write_config(tmp_path: Path, data: dict) -> Path:
    p = tmp_path / "config.json"
    p.write_text(json.dumps(data))
    return p


def config(kind: str, params: dict, **extra) -> dict:
    return {"schema": "recurlab/1", "kind": kind, "params": params, **extra}


# --- config validation -----------------------------------------------------

def test_schema_rejects_bad_configs():
    good = config("witness", {"seq": TRI13, "theta": "1/3", "horizon": 3})
    ExperimentConfig.from_dict(good)
    for breakage in [
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="recurlab/2"),
        lambda d: d.update(kind="unknown"),
        lambda d: d.update(extra=1),
        lambda d: d["params"].pop("seq"),
        lambda d: d["params"].update(stray=1),
        lambda d: d["params"]["seq"].update(name="mystery"),
    ]:
        data = json.loads(json.dumps(good))
        breakage(data)
        with pytest.raises(ConfigError, match="schema violation"):
            ExperimentConfig.from_dict(data)
    pow2_without_log2 = config("kahane", {"seq": TRI13, "stages": 2,
                                          "targets": {"rule": "pow2"}})
    with pytest.raises(ConfigError, match="schema violation"):
        ExperimentConfig.from_dict(pow2_without_log2)
    empty = config("witness", {"seq": {"name": "naturals", "count": 0},
                               "theta": "1/3", "horizon": 3})
    with pytest.raises(ConfigError, match=r"^config schema violation at "
                       r"params\.seq\.count: 0 is less than the minimum of 1$"):
        ExperimentConfig.from_dict(empty)


def test_malformed_config_exits_nonzero(tmp_path):
    p = write_config(tmp_path, config("jamison", {"epsilon": "1/4",
                                                  "horizon": 5}))
    assert main(["jamison", "--config", str(p)]) == 2


def test_kind_subcommand_mismatch(tmp_path):
    p = write_config(tmp_path, config("witness", {"seq": TRI13,
                                                  "theta": "1/3",
                                                  "horizon": 3}))
    assert main(["jamison", "--config", str(p)]) == 2


def test_bits_below_53_exit_2(tmp_path):
    out = tmp_path / "out"
    params = {"seq": TRI13, "theta": "1/3", "horizon": 3}
    p = write_config(tmp_path, config("witness", params, bits=24, out=str(out)))
    assert main(["witness", "--config", str(p)]) == 2
    p = write_config(tmp_path, config("witness", params, out=str(out)))
    assert main(["witness", "--config", str(p), "--bits", "40"]) == 2
    assert not out.exists()


def test_short_ratio_and_multiplier_lists_exit_2_naming_the_list(tmp_path, capsys):
    short_ratios = config("kahane", {"seq": {"name": "divisibility", "count": 4,
                                             "ratios": [2]},
                                     "stages": 2, "targets": {"rule": "inverse-linear"}})
    short_q = config("jamison", {"seq": {"name": "recursive-q", "count": 3, "q": [1]},
                                 "epsilon": "1/4", "horizon": 2})
    for data, needed in ((short_ratios, "ratios has 1 entries; count 4 needs at least 3"),
                         (short_q, "q has 1 entries; count 3 needs at least 2")):
        p = write_config(tmp_path, data)
        assert main([data["kind"], "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert needed in capsys.readouterr().err


# --- experiment kinds ------------------------------------------------------

def test_witness_run(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "witness", {"seq": TRI13, "theta": "1/3", "horizon": 12,
                    "target": "3/2"}))
    report = run(cfg, out_dir=tmp_path)
    assert report["passed"] and report["schema"] == "recurlab/1"
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "cert-00-rotation-witness.json").exists()
    lines = (tmp_path / "residues.csv").read_text().splitlines()
    assert lines[0] == "k,n_k,residue,dist,dist_lo,dist_hi"
    assert len(lines) == 14
    assert lines[1].startswith("0,1,1/3,")


def test_rankone_run(tmp_path):
    p = write_config(tmp_path, config(
        "rankone", {"schedule": {"kind": "chacon", "rounds": 6},
                    "k_range": [1, 2]}, out=str(tmp_path / "out")))
    assert main(["rankone", "--config", str(p)]) == 0
    rows = (tmp_path / "out" / "overlaps.csv").read_text().splitlines()
    assert rows[1].split(",")[:3] == ["1", "3", "0/1"]
    assert rows[2].split(",")[:3] == ["2", "12", "0/1"]
    levels = (tmp_path / "out" / "levels.csv").read_text().splitlines()
    assert levels[0] == "level,lo,lo_frac,width_frac,red"
    # reference: each level's start as a Fraction, from the check's stage
    from recurlab.rankone import StackingSchedule, nonrecurrence_check
    stage = nonrecurrence_check(StackingSchedule.chacon(6), 2).build.stages[-1]
    want = []
    for j, x in enumerate(stage.starts):
        lo = x * stage.unit
        want.append(f"{j},{float(lo)},{lo.numerator}/{lo.denominator},"
                    f"{stage.width.numerator}/{stage.width.denominator},"
                    f"{1 if j in stage.red else 0}")
    assert levels[1:] == want and len(stage.red) > 0


def test_jamison_naturals_no_witness(tmp_path):
    p = write_config(tmp_path, config(
        "jamison", {"seq": {"name": "naturals", "count": 13},
                    "epsilon": "1/4", "horizon": 12, "grid": 13,
                    "expect": "separation"}, out=str(tmp_path / "out")))
    assert main(["jamison", "--config", str(p)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    cert = report["certificates"][0]
    assert "no small-sup witness found" in cert["claim"]
    assert cert["passed"] and not report["values"]["witness_found"]


def test_jamison_expectation_can_fail(tmp_path):
    p = write_config(tmp_path, config(
        "jamison", {"seq": {"name": "naturals", "count": 13},
                    "epsilon": "1/4", "horizon": 12, "grid": 13,
                    "expect": "witness"}, out=str(tmp_path / "out")))
    assert main(["jamison", "--config", str(p)]) == 1


def test_jamison_structural_witness(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "jamison", {"seq": {"name": "triangular-pow2", "count": 14},
                    "epsilon": "1/4", "horizon": 12, "expect": "witness"}))
    report = run(cfg, out_dir=tmp_path)
    assert report["passed"]
    scan = (tmp_path / "scan.csv").read_text().splitlines()
    assert len(scan) == 14        # a found witness tabulates every k


def test_kahane_run(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "kahane", {"seq": TRI13, "stages": 4,
                   "targets": {"rule": "inverse-linear"}, "horizon": 3},
        bits=96))
    report = run(cfg, out_dir=tmp_path)
    assert report["passed"] and len(report["certificates"]) == 2
    kinds = [c["kind"] for c in report["certificates"]]
    assert kinds == ["rigid-measure-build", "rigidity-check"]
    rows = (tmp_path / "fourier.csv").read_text().splitlines()
    assert rows[0] == "k,n_k,target,dev,dev_lo,dev_hi"
    assert len(rows) == 5


def test_kahane_rows_are_the_rigidity_bounds(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "kahane", {"seq": TRI13, "stages": 8,
                   "targets": {"rule": "inverse-linear"}}, bits=128))
    report = run(cfg, out_dir=tmp_path)
    check = report["certificates"][1]
    assert check["kind"] == "rigidity-check"
    lines = (tmp_path / "fourier.csv").read_text().splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    assert [int(r["k"]) for r in rows] == list(range(8))
    for r in rows:
        dev = check["bounds"][f"dev_k{r['k']}"]
        assert (r["dev_lo"], r["dev_hi"]) == (dev["lo"], dev["hi"])
        mid = Bound(Fraction(dev["lo"]), Fraction(dev["hi"])).dec(17)
        assert r["dev"] == mid


def test_linsys_run(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "linsys", {"seq": TRI13, "dimension": 8, "horizon": 3,
                   "delta": "1/8", "witness_theta": "1/3",
                   "mc": {"samples": 200}}, seed=7))
    report = run(cfg, out_dir=tmp_path)
    assert report["passed"]
    kinds = [c["kind"] for c in report["certificates"]]
    assert kinds == ["power-norms", "ball-disjoint", "ball-sample"]
    assert (tmp_path / "norms.csv").read_text().startswith(
        "k,n_k,norm_TI,norm_TD,bits_used")
    assert "gamma_max" in report["values"]


def test_linsys_past_the_chain_horizon_certifies(tmp_path):
    # horizon 10 reaches n = 2^55 at 53 bits: the table's working precision
    # covers it, the certificate records that precision, and the rows past
    # the chain's horizon, where T^(n_k) = I, print 0
    out = tmp_path / "out"
    p = write_config(tmp_path, config(
        "linsys", {"seq": TRI13, "dimension": 3, "horizon": 10, "delta": "1/2"},
        out=str(out)))
    assert main(["linsys", "--config", str(p)]) == 0
    report = json.loads((out / "report.json").read_text())
    [cert] = report["certificates"]
    assert cert["kind"] == "power-norms" and cert["passed"]
    assert cert["params"]["working_bits"] > 53 + 32
    rows = (out / "norms.csv").read_text().splitlines()[1:]
    assert rows[-1].split(",")[2:4] == ["0", "0"]


def test_linsys_uncertifiable_ball_is_a_failing_certificate(tmp_path):
    # 8 * 1/8 is an integer, so the witness delta is 0 and no ball fits
    out = tmp_path / "out"
    p = write_config(tmp_path, config(
        "linsys", {"seq": TRI13, "dimension": 3, "horizon": 2, "delta": "1/2",
                   "witness_theta": "1/8", "mc": {"samples": 10}},
        out=str(out)))
    assert main(["linsys", "--config", str(p)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert [(c["kind"], c["passed"]) for c in report["certificates"]] == [
        ("power-norms", True), ("ball-disjoint", False)]


def test_linsys_weight_tuning_failure_is_a_failing_certificate(tmp_path, capsys):
    # delta/2 = 2^-57 is below one unit at 53 bits, so no allowed halving of
    # the weight scale certifies the norms: the run writes its report with
    # a failing power-norms certificate that names the reason, and exits 1
    out = tmp_path / "out"
    p = write_config(tmp_path, config(
        "linsys", {"seq": {"name": "triangular-pow2", "count": 81},
                   "dimension": 8, "horizon": 2,
                   "delta": "1/72057594037927936"}, out=str(out)))
    assert main(["linsys", "--config", str(p)]) == 1
    assert "[FAIL] power-norms" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    [cert] = report["certificates"]
    assert cert["kind"] == "power-norms" and not cert["passed"]
    assert cert["values"]["error"].startswith(
        "weight tuning failed after 60 halvings: ")
    assert cert["params"] == {"delta": "1/72057594037927936", "dimension": 8}
    assert report["outputs"] == ["cert-00-power-norms.json"]


def test_bohr_run(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "bohr", {"r": 1, "n_max": 3, "eps": "1/8",
                 "probe": {"rotations": ["1/6"], "eps": "1/2"}}))
    report = run(cfg, out_dir=tmp_path)
    assert report["passed"]
    kinds = [c["kind"] for c in report["certificates"]]
    assert kinds == ["non-jamison-witness"] * 2 + ["rotation-witness"] * 2 \
        + ["union"]
    union = report["certificates"][-1]
    assert union["values"]["elements"] == report["values"]["merged"]
    blocks = (tmp_path / "blocks.csv").read_text().splitlines()
    assert blocks[1] == "1,0,7"
    assert report["values"]["probe"]["found"]
    assert (tmp_path / "probe.csv").read_text().splitlines()[0] == \
        "tuple,eps,found_k,value"


def test_bohr_encodes_each_certificate_once(tmp_path, monkeypatch):
    calls = []
    encode = Certificate.to_dict
    monkeypatch.setattr(Certificate, "to_dict",
                        lambda self: calls.append(self.kind) or encode(self))
    cfg = ExperimentConfig.from_dict(config(
        "bohr", {"r": 2, "n_max": 4, "eps": "1/16",
                 "probe": {"rotations": ["1/3", "1/5"], "eps": "1/100"}}))
    report = run(cfg, out_dir=tmp_path)
    assert sorted(calls) == sorted(c["kind"] for c in report["certificates"])


def test_gauss_run(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "gauss", {"kahane": {"seq": TRI13, "stages": 4,
                             "targets": {"rule": "pow2", "log2": 4}},
                  "rectangle": [-0.6, 0.9, -0.7, 0.8], "blocks": 10,
                  "side": "A", "max_index": 5, "samples": 1000}, seed=11))
    report = run(cfg, out_dir=tmp_path)
    assert report["passed"]
    assert report["values"]["atoms"] == 16
    rows = (tmp_path / "gauss.csv").read_text().splitlines()
    assert len(rows[0].split(",")) == 13
    assert len(rows) == 5         # A-indices 2..5 of the 10-block split


def test_gauss_reaches_24_stages_without_materializing(tmp_path, monkeypatch):
    def refuse(self, max_atoms=1 << 16):
        raise AssertionError("materialize() called")
    monkeypatch.setattr(ConvolutionFactorization, "materialize", refuse)
    p = write_config(tmp_path, config(
        "gauss", {"kahane": {"seq": {"name": "triangular-pow2", "count": 25},
                             "stages": 24,
                             "targets": {"rule": "inverse-linear"}},
                  "rectangle": [-0.6, 0.9, -0.7, 0.8], "blocks": 10,
                  "side": "A", "max_index": 12, "samples": 1000}, seed=7))
    out = tmp_path / "out"
    assert main(["gauss", "--config", str(p), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["values"]["atoms"] == 2 ** 24


def test_gauss_at_63_stages_counts_its_atoms_exactly(tmp_path):
    # 2^63 atoms is one past what len() can return
    p = write_config(tmp_path, config(
        "gauss", {"kahane": {"seq": {"name": "triangular-pow2", "count": 64},
                             "stages": 63,
                             "targets": {"rule": "inverse-linear"}},
                  "rectangle": [-0.6, 0.9, -0.7, 0.8], "blocks": 10,
                  "side": "A", "max_index": 12, "samples": 1000}, seed=7))
    out = tmp_path / "out"
    assert main(["gauss", "--config", str(p), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert int(report["values"]["atoms"]) == 2 ** 63


# --- flags and overrides ---------------------------------------------------

def test_flag_overrides(tmp_path):
    p = write_config(tmp_path, config(
        "witness", {"seq": TRI13, "theta": "1/3", "horizon": 12}))
    out = tmp_path / "ovr"
    assert main(["witness", "--config", str(p), "--out", str(out),
                 "--horizon", "5", "--bits", "64", "--seed", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["params"]["horizon"] == 5
    assert report["config"]["bits"] == 64 and report["config"]["seed"] == 3
    assert len((out / "residues.csv").read_text().splitlines()) == 7


def test_flag_overrides_are_validated_by_the_schema(tmp_path, capsys):
    witness = config("witness", {"seq": TRI13, "theta": "1/3", "horizon": 3})
    gauss = config("gauss", {"kahane": {"seq": TRI13, "stages": 4,
                                        "targets": {"rule": "inverse-linear"}},
                             "rectangle": [-0.6, 0.9, -0.7, 0.8], "blocks": 10,
                             "side": "A", "max_index": 5, "samples": 1000})
    out = tmp_path / "out"
    for data, flags in [(witness, ["--horizon", "-1"]),
                        (witness, ["--seed", "-4"]),
                        (gauss, ["--horizon", "3"])]:
        p = write_config(tmp_path, data)
        assert main([data["kind"], "--config", str(p), "--out", str(out),
                     *flags]) == 2, flags
        assert "config schema violation" in capsys.readouterr().err, flags
        assert not out.exists(), flags


def test_linsys_rho0_and_gamma_scale_exit_2_naming_the_key(tmp_path, capsys):
    # the first weight scale is 1/4 and the spot check samples at 0.9 of the
    # certified radius: neither is a config key
    params = {"seq": TRI13, "dimension": 4, "horizon": 2, "delta": "1/2",
              "witness_theta": "1/3", "mc": {"samples": 20}}
    out = tmp_path / "out"
    for key, path, data in [
            ("rho0", "params", {**params, "rho0": "1/4"}),
            ("gamma_scale", "params.mc",
             {**params, "mc": {"samples": 20, "gamma_scale": 0.9}})]:
        p = write_config(tmp_path, config("linsys", data))
        assert main(["linsys", "--config", str(p), "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"config error: config schema violation at {path}: "
            f"{key!r} is not an allowed property"]
        assert not out.exists()


def test_schema_closes_handler_key_and_type_errors(tmp_path, capsys):
    def witness(**seq):
        return config("witness", {"seq": {"name": "recursive-q", "count": 4,
                                          **seq}, "theta": "1/3", "horizon": 3})

    def rankone(**schedule):
        return config("rankone", {"schedule": schedule, "k_range": [1, 2]})

    out = tmp_path / "out"
    for data in [witness(q=None), witness(q=[1.7, 2.9, 3]), witness(q=3.0),
                 witness(q=[]), rankone(kind="constant"),
                 rankone(kind="from-seq"), rankone(kind="shifted"),
                 config("witness", {"seq": TRI13, "theta": "1/3",
                                    "horizon": 3.0}),
                 # a grid of 2^31 would scan about 2^30 rows: refused unscanned
                 config("jamison", {"seq": {"name": "naturals", "count": 3},
                                    "epsilon": "7/4", "horizon": 2,
                                    "grid": 2 ** 31})]:
        p = write_config(tmp_path, data)
        assert main([data["kind"], "--config", str(p), "--out", str(out)]) == 2
        assert "config schema violation" in capsys.readouterr().err, data
        assert not out.exists(), data
    p = write_config(tmp_path, witness(q=[1, 2, 3]))
    assert main(["witness", "--config", str(p), "--out", str(out)]) == 0


def test_run_restores_working_precision(tmp_path):
    before = get_bits()
    cfg = ExperimentConfig.from_dict(config(
        "rankone", {"schedule": {"kind": "chacon"}, "k_range": [3, 1]},
        bits=64))
    with pytest.raises(ConfigError, match="k_range"):
        run(cfg, out_dir=tmp_path)
    assert get_bits() == before


def test_reports_reproduce_bit_for_bit(tmp_path):
    cfg = ExperimentConfig.from_dict(config(
        "linsys", {"seq": TRI13, "dimension": 8, "horizon": 3,
                   "delta": "1/8", "witness_theta": "1/3",
                   "mc": {"samples": 200}}, seed=5))
    first = run(cfg, out_dir=tmp_path / "a")
    again = run(ExperimentConfig.from_dict(first["config"]),
                out_dir=tmp_path / "b")
    assert again["certificates"] == first["certificates"]
    assert again["values"] == first["values"]


# --- gen-seq, combine, report ----------------------------------------------

def test_gen_seq_stdout(capsys):
    assert main(["gen-seq", "--name", "chacon", "--count", "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["k,n_k", "0,1", "1,4", "2,13", "3,40", "4,121"]


def test_gen_seq_to_file(tmp_path):
    assert main(["gen-seq", "--name", "divisibility", "--count", "4",
                 "--base", "3", "--ratio", "2", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "sequence.csv").read_text() == \
        "k,n_k\n0,3\n1,6\n2,12\n3,24\n"


# --- integers past CPython's 4,300-digit int-to-str cap ---------------------

def _past_the_cap(text: str) -> bool:
    return any(len(tok) > 4300 for tok in text.replace("/", ",").split(","))


def test_gen_seq_past_the_int_str_cap(capsys):
    # n_199 = 2^19900 has 5,991 digits; the cap is lifted for the run only
    cap = sys.get_int_max_str_digits()
    assert main(["gen-seq", "--name", "triangular-pow2", "--count", "200"]) == 0
    assert sys.get_int_max_str_digits() == cap
    last = capsys.readouterr().out.splitlines()[-1]
    digits = math.floor(19900 * math.log10(2)) + 1
    assert last.startswith("199,") and len(last) == 4 + digits == 5995


def test_witness_past_the_int_str_cap(tmp_path):
    seq = {"name": "triangular-pow2", "count": 201}
    path = write_config(tmp_path, config("witness", {
        "seq": seq, "theta": "1/3", "horizon": 200}))
    assert main(["witness", "--config", str(path), "--out", str(tmp_path / "w")]) == 0
    last = (tmp_path / "w" / "residues.csv").read_text().splitlines()[-1]
    assert last.startswith("200,") and _past_the_cap(last)


def test_kahane_past_the_int_str_cap(tmp_path):
    # 112 stages is the first whose max_atom_mass denominator passes the cap
    seq = {"name": "triangular-pow2", "count": 113}
    path = write_config(tmp_path, config("kahane", {
        "seq": seq, "stages": 112, "targets": {"rule": "inverse-linear"},
        "horizon": 0}, bits=128))
    assert main(["kahane", "--config", str(path), "--out", str(tmp_path / "k")]) == 0
    report = json.loads((tmp_path / "k" / "report.json").read_text())
    mass = report["certificates"][0]["values"]["max_atom_mass"]
    assert report["passed"] and _past_the_cap(mass)


def test_combine_requires_all_passing(tmp_path):
    good = Certificate(kind="a", claim="first", passed=True,
                       values={"elements": [3, 1]})
    good.save(tmp_path / "a.json")
    Certificate(kind="b", claim="second", passed=False).save(tmp_path / "b.json")
    assert main(["combine", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(tmp_path / "u")]) == 1
    assert not (tmp_path / "u").exists()


def test_combine_merges_elements(tmp_path):
    Certificate(kind="a", claim="first", passed=True, exact=True,
                values={"elements": [3, 1]}).save(tmp_path / "a.json")
    Certificate(kind="b", claim="second", passed=True, exact=True,
                values={"elements": [2, 3]}).save(tmp_path / "b.json")
    assert main(["combine", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                 "--out", str(tmp_path), "--claim", "both halves"]) == 0
    data = json.loads((tmp_path / "combined.json").read_text())
    assert data["claim"] == "both halves" and data["passed"] and data["exact"]
    assert data["values"]["elements"] == [1, 2, 3]
    assert [c["kind"] for c in data["values"]["components"]] == ["a", "b"]


def test_combine_run_reports(tmp_path):
    wit_path = tmp_path / "w.json"
    wit_path.write_text(json.dumps(
        config("witness", {"seq": TRI13, "theta": "1/3", "horizon": 3})))
    boh_path = tmp_path / "b.json"
    boh_path.write_text(json.dumps(config("bohr", {"r": 1, "n_max": 2, "eps": "1"})))
    assert main(["witness", "--config", str(wit_path),
                 "--out", str(tmp_path / "w")]) == 0
    assert main(["bohr", "--config", str(boh_path),
                 "--out", str(tmp_path / "b")]) == 0
    assert main(["combine", str(tmp_path / "w" / "report.json"),
                 str(tmp_path / "b" / "report.json"),
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "combined.json").read_text())
    # the rotation witnesses hold enclosures, so the union is not exact
    assert data["passed"] and not data["exact"]
    comps = data["values"]["components"]
    assert [c["kind"] for c in comps] == ["witness", "bohr"]
    assert comps[0]["claim"] == "1 certificate(s)"
    # elements surface from the bohr union through the run report
    assert data["values"]["elements"] == [6, 7, 13, 468, 469, 937, 1405]


def test_combine_single_certificate(tmp_path):
    Certificate(kind="solo", claim="alone", passed=True,
                values={"elements": [5]}).save(tmp_path / "s.json")
    assert main(["combine", str(tmp_path / "s.json"),
                 "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "combined.json").read_text())
    assert data["values"]["elements"] == [5] and data["passed"]


def test_report_subcommand(tmp_path, capsys):
    Certificate(kind="demo", claim="ok", passed=True).save(tmp_path / "c.json")
    assert main(["report", str(tmp_path / "c.json")]) == 0
    assert "passed:  True" in capsys.readouterr().out
    Certificate(kind="demo", claim="no", passed=False).save(tmp_path / "f.json")
    assert main(["report", str(tmp_path / "f.json")]) == 1
    (tmp_path / "x.json").write_text("{}")
    assert main(["report", str(tmp_path / "x.json")]) == 2


# --- schema fuzzing ----------------------------------------------------------

# caps on the integers that set a run's size, so that every drawn config
# finishes in a fraction of a second; other integers stay within 4 of their
# minimum
_SMALL = {"count": 8, "dimension": 4, "grid": 64, "stages": 6}
_FRACS = st.one_of(st.fractions(0, 2, max_denominator=64).map(str),
                   st.integers(-1, 2), st.floats(-1, 2))


def _from_schema(schema: dict, key: str = ""):
    """Values that satisfy ``schema``, the subset of JSON Schema that the
    config schemas use; ``if``/``then`` conditions are left to the validator."""
    if "const" in schema:
        return st.just(schema["const"])
    if "enum" in schema:
        return st.sampled_from(schema["enum"])
    if "oneOf" in schema:
        return st.one_of(*(_from_schema(s, key) for s in schema["oneOf"]))
    kind = schema["type"]
    if kind == ["string", "number"]:
        return _FRACS
    if kind == "number":
        return st.floats(-2, 2)
    if kind == "integer":
        if key == "samples":
            return st.just(1000)
        lo = schema.get("minimum", 0)
        return st.integers(lo, min(schema.get("maximum", lo + 4),
                                   _SMALL.get(key, lo + 4)))
    if kind == "array":
        least = schema.get("minItems", 0)
        return st.lists(_from_schema(schema["items"], key), min_size=least,
                        max_size=schema.get("maxItems", least + 3))
    props, required = schema["properties"], schema.get("required", [])
    return st.fixed_dictionaries(
        {k: _from_schema(props[k], k) for k in required},
        optional={k: _from_schema(v, k) for k, v in props.items()
                  if k not in required})


_configs = st.sampled_from(KINDS).flatmap(lambda kind: st.fixed_dictionaries(
    {"schema": st.just(SCHEMA), "kind": st.just(kind),
     "params": _from_schema(PARAMS_SCHEMAS[kind])},
    optional={"bits": st.integers(53, 128), "seed": st.integers(0, 2 ** 31)}))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_configs)
def test_schema_valid_configs_exit_0_1_or_2(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main([data["kind"], "--config", str(path), "--out", tmp])
    assert rc in (0, 1, 2)


# --- the validator against jsonschema -----------------------------------------

@functools.cache
def _jsonschema_validator():
    """The cross-check route: Draft 2020-12 jsonschema, with "integer"
    excluding 3.0 as in the package's validator."""
    jsonschema = pytest.importorskip("jsonschema")
    draft = jsonschema.Draft202012Validator
    integer = draft.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    return jsonschema.validators.extend(draft, type_checker=integer)


def _jsonschema_valid(schema: dict, x) -> bool:
    return _jsonschema_validator()(schema).is_valid(x)


def _subschemas(schema: dict):
    yield schema
    for key in ("items", "if", "then"):
        if key in schema:
            yield from _subschemas(schema[key])
    for sub in [*schema.get("properties", {}).values(),
                *schema.get("oneOf", ()), *schema.get("allOf", ())]:
        yield from _subschemas(sub)


def test_schemas_use_exactly_the_implemented_keywords():
    nodes = [n for s in [CONFIG_SCHEMA, *PARAMS_SCHEMAS.values()]
             for n in _subschemas(s)]
    assert {k for n in nodes for k in n} == SCHEMA_KEYWORDS
    for n in nodes:
        types = n.get("type", [])
        assert set([types] if isinstance(types, str) else types) <= set(_TYPES)
        # the validator compares with ==, JSON equality on strings
        values = n.get("enum", []) + ([n["const"]] if "const" in n else [])
        assert all(isinstance(v, str) for v in values)
        assert n.get("additionalProperties", False) is False


def test_import_leaves_jsonschema_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", "import recurlab.cli, sys; "
                    "assert 'jsonschema' not in sys.modules"],
                   check=True, env={**os.environ, "PYTHONPATH": src})


# values that break the integer, range, type and oneOf rules
_ODD = st.sampled_from([True, False, None, 3.0, 0, -1, 2 ** 31, 1.5, "", "x",
                        "pow2", "chacon", [], {}, [0], [1.7], {"rule": "pow2"}])
_KEYS = st.sampled_from(["stray", "log2", "q", "p", "seq", "rule", "count"])


@st.composite
def _mutated(draw, value):
    """``value`` with one node replaced, one key dropped or one key added."""
    if isinstance(value, (dict, list)) and value and draw(st.integers(0, 2)):
        keys = sorted(value) if isinstance(value, dict) else range(len(value))
        key = draw(st.sampled_from(keys))
        value = copy.copy(value)
        value[key] = draw(_mutated(value[key]))
        return value
    if isinstance(value, dict) and draw(st.booleans()):
        value = dict(value)
        if value and draw(st.booleans()):
            del value[draw(st.sampled_from(sorted(value)))]
        else:
            value[draw(_KEYS)] = draw(_ODD)
        return value
    return draw(_ODD)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(_configs, _configs.flatmap(_mutated)))
@example(config("kahane", {"seq": TRI13, "stages": 2,
                           "targets": {"rule": "pow2"}}))
@example(config("witness", {"seq": {"name": "recursive-q", "count": 4,
                                    "q": [3, True]}, "theta": 1.5,
                            "horizon": 3}))
@example(config("rankone", {"schedule": {"kind": "shifted", "p": 2},
                            "k_range": [1, 2.0]}))
def test_validator_accepts_exactly_what_jsonschema_accepts(data):
    try:
        ExperimentConfig.from_dict(data)
        ours = True
    except ConfigError:
        ours = False
    theirs = _jsonschema_valid(CONFIG_SCHEMA, data) and _jsonschema_valid(
        PARAMS_SCHEMAS[data["kind"]], data["params"])
    assert ours == theirs


# each keyword on its own and in the combinations the config schemas use,
# with both oneOf branches matching 2
_KEYWORD_SCHEMAS = [
    {"oneOf": [{"type": "integer"}, {"minimum": 0}]},
    {"type": ["string", "number"], "maximum": 3},
    {"type": "array", "items": {"type": "integer", "minimum": 1},
     "minItems": 1, "maxItems": 2},
    {"type": "object", "required": ["rule"],
     "properties": {"rule": {"enum": ["a", "pow2"]},
                    "log2": {"type": "integer"}},
     "additionalProperties": False,
     "allOf": [{"if": {"properties": {"rule": {"const": "pow2"}}},
                "then": {"required": ["log2"]}}]},
]
_JSON = st.recursive(
    st.one_of(_ODD, st.integers(-3, 5), st.floats(-3, 5), st.just("a")),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["rule", "log2", "x"]), inner,
                        max_size=3)),
    max_leaves=6)


@settings(max_examples=300, deadline=None)
@given(schema=st.sampled_from(_KEYWORD_SCHEMAS), x=_JSON)
@example(schema=_KEYWORD_SCHEMAS[0], x=2)
def test_each_keyword_agrees_with_jsonschema(schema, x):
    assert (_violation(schema, x) is None) == _jsonschema_valid(schema, x)
