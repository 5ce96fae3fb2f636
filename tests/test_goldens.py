"""Golden digests of whole runs of the exact kinds, in the style of
``test_linsys.LINSYS_GOLDEN``: a change that should leave every output
byte alone must leave these digests alone."""

import hashlib

import pytest

from recurlab import cli
from recurlab.certificates import dump_json

TRI = {"name": "triangular-pow2", "count": 14}

CONFIGS = {
    "witness": {"kind": "witness",
                "params": {"seq": {"name": "triangular-pow2", "count": 60},
                           "theta": "1/3", "horizon": 59, "target": "3/2"}},
    "jamison-structural": {"kind": "jamison",
                           "params": {"seq": TRI, "epsilon": "1/4",
                                      "horizon": 12, "expect": "witness"}},
    "jamison-grid-2001": {"kind": "jamison",
                          "params": {"seq": {"name": "naturals", "count": 2001},
                                     "epsilon": "7/4", "horizon": 2000,
                                     "grid": 2001, "expect": "witness"}},
    "kahane-8": {"kind": "kahane", "bits": 128,
                 "params": {"seq": {"name": "triangular-pow2", "count": 13},
                            "stages": 8, "targets": {"rule": "inverse-linear"}}},
    "rankone-chacon-4": {"kind": "rankone",
                         "params": {"schedule": {"kind": "chacon", "rounds": 6},
                                    "k_range": [4, 4]}},
    "bohr": {"kind": "bohr",
             "params": {"r": 2, "n_max": 4, "eps": "1/16",
                        "probe": {"rotations": ["1/3", "1/5"], "eps": "1/100"}}},
}

# sha256 of report.json without its "out" key, and of the run's CSV
# tables, read in name order and concatenated
GOLDEN = {
    "bohr": ("759554a64f23af4d92322638a6620a9f826914a16cfba7495cf8c164fdc9e692",
             "07052f4b2e2fdabf4ba6c6f5c1a054ed484f1774a4b22e6501ae25b218cb0c07"),
    "jamison-grid-2001": ("e500413d9721c48bd54c9a9e05aa532ace9c86589dbf65a60f9872ef357c4cdf",
                          "9217cd80f4a8015a2537d4ca4ea1ddc7495378f36677266e69b772bb475a2e30"),
    "jamison-structural": ("11569c7f7378199f8c81db3b9656dcb48e953218fba755db973d80790498103e",
                           "6ccfef563abfb6ee3a5e03ed7b8780062e0924bcfd0e6f8f38bade2ae2479b58"),
    "kahane-8": ("73fa32f5c4fe38301cc711a6dd52174f853d54aa23824701ddecd92291fe1d1b",
                 "aa14ca6fb2162b08c5fa578650bbf2ea318dd86817c43ee11a19708bc257c12d"),
    "rankone-chacon-4": ("a7a42185ebf4fa0b7e305c0cf0ba5f154a5fb11a5d81819e90e0af26a9741fd8",
                         "970c91ae1ab5c1dc2f3883afd19ed22fe24b1c5236ba4902c531c21c7cff4f80"),
    "witness": ("732b385b801556f60e2483728c49fd4c6ba1c6ae9a746e6a770da06de8d96455",
                "60e54fa5f5854d2aa2de534e54d8fffc3d49bbc4d0432ab007e8313b203027e0"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reports_match_golden_digests(tmp_path, name):
    config = {"schema": "recurlab/1", **CONFIGS[name]}
    report = cli.run(cli.ExperimentConfig.from_dict(config), tmp_path)
    del report["config"]["out"]
    tables = hashlib.sha256()
    for path in sorted(tmp_path.glob("*.csv")):
        tables.update(path.read_bytes())
    digests = (hashlib.sha256(dump_json(report).encode()).hexdigest(),
               tables.hexdigest())
    assert digests == GOLDEN[name]
