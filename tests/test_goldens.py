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
    "bohr": ("11813faa2ed3b3e75b035bc892e8117b7b246927c39be26a19585f837b9e76dd",
             "93ca95128246def92b80e16a1c34ac93d1fedad8dacd1be98761b24380eadf47"),
    "jamison-grid-2001": ("b8c193adb9b6abc661036870c051fab8ad2572fd3e674503763fbcd0b3e2d149",
                          "bc3f2d1d0bb189c9c40ed0af8eb7f1431f9e30414553fed49bbfe8bf675e2cb8"),
    "jamison-structural": ("385a185b31f94b405b30d782cea89c04c996d05029e7df7be5497fb7b29cb075",
                           "b3758e1d4ea9c2d6bdb94dda5d095ed95b91797adc1b09b4810e52a0b3a74cdc"),
    "kahane-8": ("cc2b52b98801c11bc6da446967b9cd7ebcf8985ecc8d7647ef9ebe91a17dafc8",
                 "49ca8f14bb8299535e97dfeda0af54d7ae2a95055ecef0e8ae4360b804bf7a35"),
    "rankone-chacon-4": ("a7a42185ebf4fa0b7e305c0cf0ba5f154a5fb11a5d81819e90e0af26a9741fd8",
                         "970c91ae1ab5c1dc2f3883afd19ed22fe24b1c5236ba4902c531c21c7cff4f80"),
    "witness": ("87194d472c4e93f0c6ff86f8c667785fd24c8f750b1afa5a8227f06964b8a1de",
                "1a5c67bd8c117caee0e1e3b5a5299b5711a3eee611dbbd7de65a51830d289db8"),
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
