"""What a run loads: the CLI imports only what every kind needs, a config
that validates loads its kind's modules, and ``run`` loads nothing more.
``precision`` computes its enclosures on integers, so no kind loads
mpmath (a test dependency only) or any part of it."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from recurlab.certificates import encode_value
from recurlab.circle import GRID_LIMIT
from recurlab.cli import KINDS, PARAMS_SCHEMAS
from recurlab.precision import Bound, CBound

SRC = str(Path(__file__).resolve().parents[1] / "src")

TRI = {"name": "triangular-pow2", "count": 14}
SMALL = {
    "jamison": {"seq": {"name": "naturals", "count": 40}, "epsilon": "7/4",
                "horizon": 39, "grid": 42, "expect": "witness"},
    "witness": {"seq": TRI, "theta": "1/3", "horizon": 12, "target": "3/2"},
    "kahane": {"seq": TRI, "stages": 4, "targets": {"rule": "inverse-linear"}},
    "rankone": {"schedule": {"kind": "chacon", "rounds": 4}, "k_range": [1, 2]},
    "linsys": {"seq": TRI, "dimension": 4, "horizon": 3, "delta": "1/2",
               "witness_theta": "1/3", "mc": {"samples": 20}},
    "bohr": {"r": 2, "n_max": 4, "eps": "1/16",
             "probe": {"rotations": ["1/3", "1/6"], "eps": "1/100"}},
    "gauss": {"kahane": {"seq": TRI, "stages": 4,
                         "targets": {"rule": "inverse-linear"}},
              "rectangle": [-0.6, 0.9, -0.7, 0.8], "blocks": 10, "side": "A",
              "max_index": 12, "samples": 1000},
}

# validates SMALL[kind], runs it, and prints what each step loaded
_RUN = """
import json, sys
from recurlab import cli
start = set(sys.modules)
config = cli.ExperimentConfig.from_dict(json.loads(sys.argv[1]))
validated = set(sys.modules)
report = cli.run(config, sys.argv[2])
print(json.dumps({"passed": report["passed"],
                  "from_dict": sorted(validated - start),
                  "run": sorted(set(sys.modules) - validated),
                  "loaded": sorted(sys.modules)}))
"""


def _fresh(code: str, *args: str) -> str:
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}).stdout


def _tops(modules) -> set:
    return {m.split(".")[0] for m in modules}


def test_cli_import_loads_no_numpy_mpmath_or_jsonschema():
    out = _fresh("import json, sys, recurlab.cli; print(json.dumps(sorted(sys.modules)))")
    assert not _tops(json.loads(out)) & {"numpy", "mpmath", "jsonschema"}


@pytest.mark.parametrize("kind", KINDS)
def test_run_loads_nothing_after_from_dict(kind, tmp_path):
    data = {"schema": "recurlab/1", "kind": kind, "params": SMALL[kind]}
    got = json.loads(_fresh(_RUN, json.dumps(data), str(tmp_path)))
    assert got["passed"]
    assert got["run"] == []
    assert not _tops(got["loaded"]) & {"mpmath", "_recurlab_libmp"}


def test_rankone_run_loads_no_mpmath_or_numpy(tmp_path):
    data = {"schema": "recurlab/1", "kind": "rankone", "params": SMALL["rankone"]}
    got = json.loads(_fresh(_RUN, json.dumps(data), str(tmp_path)))
    assert got["passed"] and (tmp_path / "levels.csv").exists()
    assert "recurlab.rankone" in got["from_dict"]
    assert not _tops(got["loaded"]) & {"numpy", "mpmath", "_recurlab_libmp"}
    assert "recurlab.precision" not in got["loaded"]


@pytest.mark.parametrize("kind", ["witness", "kahane", "bohr"])
def test_exact_kinds_load_no_numpy(kind, tmp_path):
    # circle imports numpy inside the jamison grid scan and polish, and
    # specmeasure inside the gauss sampler, so these runs load none
    data = {"schema": "recurlab/1", "kind": kind, "params": SMALL[kind]}
    got = json.loads(_fresh(_RUN, json.dumps(data), str(tmp_path)))
    assert got["passed"]
    assert "numpy" not in _tops(got["loaded"])


@pytest.mark.parametrize("kind", KINDS)
def test_run_loads_no_numpy_random_or_openssl(kind, tmp_path):
    # the Monte-Carlo routes (the gauss sampler and the linsys ball spot
    # check) draw from the standard library's random, so no run loads
    # numpy.random nor, through its secrets -> hmac -> hashlib chain, the
    # OpenSSL bindings
    data = {"schema": "recurlab/1", "kind": kind, "params": SMALL[kind]}
    (tmp_path / "config.json").write_text(json.dumps(data))
    code = ("import json, sys; from recurlab import cli; "
            "rc = cli.main([sys.argv[1], '--config', sys.argv[2], '--out', sys.argv[3]]); "
            "print(json.dumps([rc, sorted(sys.modules)]))")
    out = _fresh(code, kind, str(tmp_path / "config.json"), str(tmp_path / "out"))
    rc, loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert not {"numpy.random", "_hashlib"} & set(loaded)


def test_linsys_run_without_mc_loads_no_numpy(tmp_path):
    # linsys imports numpy inside its float spot checks alone, and
    # KIND_MODULES lists it for a linsys config with ``mc``
    params = {k: v for k, v in SMALL["linsys"].items() if k != "mc"}
    data = {"schema": "recurlab/1", "kind": "linsys", "params": params}
    (tmp_path / "linsys.json").write_text(json.dumps(data))
    code = ("import json, sys; from recurlab import cli; "
            "rc = cli.main(['linsys', '--config', sys.argv[1], '--out', sys.argv[2]]); "
            "print(json.dumps([rc, sorted(sys.modules)]))")
    out = _fresh(code, str(tmp_path / "linsys.json"), str(tmp_path / "out"))
    rc, loaded = json.loads(out.splitlines()[-1])
    assert rc == 0
    assert "numpy" not in _tops(loaded)
    kinds = [c["kind"] for c in json.loads(
        (tmp_path / "out" / "report.json").read_text())["certificates"]]
    assert kinds == ["power-norms", "ball-disjoint"]


def test_linsys_mc_run_loads_numpy_at_validation(tmp_path):
    data = {"schema": "recurlab/1", "kind": "linsys", "params": SMALL["linsys"]}
    got = json.loads(_fresh(_RUN, json.dumps(data), str(tmp_path)))
    assert got["passed"]
    assert "numpy" in got["from_dict"] and got["run"] == []


_INEXACT = {"lo": "1/3", "hi": "1/2",
            "dec": "0.4166666666666666666666666666666666666667", "exact": False}
_EXACT = {"lo": "-3/4", "hi": "-3/4", "dec": "-0.75", "exact": True}
_ONE = {"re": {"lo": "1/1", "hi": "1/1", "dec": "1", "exact": True},
        "im": {"lo": "0/1", "hi": "0/1", "dec": "0", "exact": True}}


def test_encode_value_of_bounds_matches_golden_dicts():
    inexact, exact = Bound(F(1, 3), F(1, 2)), Bound.exact(F(-3, 4))
    assert encode_value(inexact) == _INEXACT
    assert encode_value(exact) == _EXACT
    # re = inexact and im = exact over the denominator 12
    assert encode_value(CBound(4, 6, -9, -9, 12)) == {"re": _INEXACT, "im": _EXACT}
    assert encode_value(CBound.exact(1)) == _ONE
    nested = {"k": [exact, (CBound.exact(1), inexact)], 2: {"x": inexact}}
    assert encode_value(nested) == {"k": [_EXACT, [_ONE, _INEXACT]],
                                    "2": {"x": _INEXACT}}


def test_jamison_grid_maximum_is_below_the_grid_limit():
    grid = PARAMS_SCHEMAS["jamison"]["properties"]["grid"]
    assert grid["maximum"] == GRID_LIMIT - 1
