"""Machine-checkable certificates and their JSON encoding.

Every verification routine in the package returns a :class:`Certificate`
(or a small dataclass wrapping one).  A certificate records the claim, the
parameters and horizon it was checked at, the certified quantities as exact
rational enclosures, and a pass flag.  Serialized certificates carry all
bounds both as ``"p/q"`` exact strings and as decimal strings for human
readers; integers wider than the double-safe range are emitted as decimal
strings so downstream tools never silently lose precision.

Schema string for configs and reports: ``"recurlab/1"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

SCHEMA = "recurlab/1"

_SAFE_INT = 2 ** 53


def frac_str(fr: Fraction) -> str:
    fr = Fraction(fr)
    return f"{fr.numerator}/{fr.denominator}"


def encode_value(v: Any) -> Any:
    """Recursively encode a value into JSON-safe primitives.  A value with a
    ``json_value`` method (``precision.Bound`` and ``CBound``) encodes
    itself, so this module imports no other part of the package."""
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v if abs(v) < _SAFE_INT else str(v)
    if isinstance(v, float):
        return v
    if isinstance(v, Mapping):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple, set, frozenset)):
        seq = sorted(v) if isinstance(v, (set, frozenset)) else v
        return [encode_value(x) for x in seq]
    if v is None or isinstance(v, str):
        return v
    json_value = getattr(v, "json_value", None)
    return json_value() if json_value else str(v)


@dataclass
class Certificate:
    """A checked claim with certified bounds and a pass flag."""

    kind: str
    claim: str
    passed: bool
    exact: bool = False
    method: str = ""
    horizon: int | None = None
    params: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    values: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "claim": self.claim,
            "passed": self.passed,
            "exact": self.exact,
            "method": self.method,
            "horizon": self.horizon,
            "params": encode_value(self.params),
            "bounds": encode_value(self.bounds),
            "values": encode_value(self.values),
        }

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(dump_json(self.to_dict()))
        return path


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_report(path: str | Path) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        raise ValueError(f"{path}: not a {SCHEMA} report")
    return data


def combine_union(reports: Sequence[dict], claim: str | None = None) -> Certificate:
    """Finite-union combinator: a bundle of certified components.

    The produced certificate asserts the conjunction of the component
    claims for the union of whatever index sets the components cover; it
    passes exactly when every component passes.  Element lists found in
    the components (``values.elements``) are merged sorted for reporting.
    """
    children = []
    merged: set[int] = set()
    all_pass = True
    all_exact = True
    for rep in reports:
        if rep.get("schema") != SCHEMA:
            raise ValueError("component report with wrong schema")
        all_pass = all_pass and bool(rep.get("passed"))
        all_exact = all_exact and bool(rep.get("exact"))
        children.append({
            "kind": rep.get("kind"),
            "claim": rep.get("claim"),
            "passed": bool(rep.get("passed")),
        })
        elems = (rep.get("values") or {}).get("elements")
        if isinstance(elems, list):
            for e in elems:
                merged.add(int(e))
    values: dict[str, Any] = {"components": children}
    if merged:
        values["elements"] = sorted(merged)
    return Certificate(
        kind="union",
        claim=claim or f"union of {len(children)} certified components",
        passed=all_pass,
        exact=all_exact,
        method="finite union of component certificates",
        values=values,
    )


def summarize(report: dict) -> str:
    """One-paragraph human summary of a loaded report dict."""
    lines = [
        f"kind:    {report.get('kind')}",
        f"claim:   {report.get('claim')}",
        f"passed:  {report.get('passed')}   exact: {report.get('exact')}",
        f"method:  {report.get('method')}",
    ]
    if report.get("horizon") is not None:
        lines.append(f"horizon: {report.get('horizon')}")
    bounds = report.get("bounds") or {}
    for name, b in bounds.items():
        if isinstance(b, dict) and "dec" in b:
            lines.append(f"  {name}: {b['dec']}  in [{b['lo']}, {b['hi']}]")
        else:
            lines.append(f"  {name}: {b}")
    comps = (report.get("values") or {}).get("components")
    if isinstance(comps, list):
        for c in comps:
            flag = "PASS" if c.get("passed") else "FAIL"
            lines.append(f"  [{flag}] {c.get('kind')}: {c.get('claim')}")
    return "\n".join(lines)
