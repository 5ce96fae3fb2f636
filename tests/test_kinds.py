"""The kind handlers live in ``recurlab.kinds``: ``cli.run`` dispatches
through that module's ``_HANDLERS`` dict, and perfbench's tracer wraps
the handlers in place, so ``--trace 1`` records a ``handler.<kind>`` span
for every kind."""

import json
from pathlib import Path

from recurlab import cli, kinds
from test_lazy_layers import SMALL, _fresh

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def test_handlers_live_in_the_kinds_module():
    assert cli._HANDLERS is kinds._HANDLERS
    assert set(cli._HANDLERS) == set(cli.KINDS)
    for kind, handler in cli._HANDLERS.items():
        assert handler.__module__ == "recurlab.kinds", kind


def test_cli_and_kinds_import_only_certificates_and_seqcore():
    code = ("import json, sys, recurlab.cli; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('recurlab'))))")
    assert json.loads(_fresh(code)) == [
        "recurlab", "recurlab.certificates", "recurlab.cli", "recurlab.kinds",
        "recurlab.seqcore"]


# installs the tracer, runs each kind's small config through ``cli.run``,
# and prints each handler span's calls and self time
_TRACED = """
import json, sys
sys.path.insert(0, sys.argv[3])
import tracer
from recurlab import cli
t = tracer.Tracer()
tracer.install(t)
for kind, params in json.loads(sys.argv[1]).items():
    config = {"schema": "recurlab/1", "kind": kind, "params": params}
    cli.run(cli.ExperimentConfig.from_dict(config), f"{sys.argv[2]}/{kind}")
print(json.dumps({kind: [t.calls(f"handler.{kind}"),
                         t.spans[f"handler.{kind}"].self_time]
                  for kind in cli.KINDS}))
"""


def test_tracer_records_a_handler_span_for_every_kind(tmp_path):
    out = _fresh(_TRACED, json.dumps(SMALL), str(tmp_path), PERFBENCH)
    spans = json.loads(out.splitlines()[-1])
    assert set(spans) == set(cli.KINDS)
    for kind, (calls, self_s) in spans.items():
        assert calls == 1 and self_s > 0, kind
