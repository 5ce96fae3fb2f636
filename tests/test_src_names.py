"""Every public top-level name in ``src/recurlab`` has a caller: in
``src/`` itself, in the acceptance criteria or in ``perfbench/``.  A name
that only its own unit tests reach is test code living in the package."""

import ast
import io
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recurlab"
CALLERS = (sorted(PACKAGE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
           + sorted((ROOT / "perfbench").glob("*.py")))

ALLOWED = {
    # the cell route's entry in exact coordinates: test_rankone pins it
    # against the step-by-step power_image reference
    ("rankone", "tower_power"),
    # the JSON Schema keywords the in-package validator implements:
    # test_cli checks that the config schemas use exactly these
    ("cli", "SCHEMA_KEYWORDS"),
}


def _uses(path: Path) -> Counter:
    """Identifier tokens outside comments and docstrings, plus string
    literals that are one identifier (the names ``getattr`` looks up)."""
    uses = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME:
            uses[tok.string] += 1
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                continue
            if isinstance(value, str) and value.isidentifier():
                uses[value] += 1
    return uses


def _public_names(path: Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (t for t in targets if not t.startswith("_"))


def test_every_public_name_has_a_caller():
    uses = Counter()
    for path in CALLERS:
        uses += _uses(path)
    uncalled = [f"{path.stem}.{name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for name in _public_names(path)
                if (path.stem, name) not in ALLOWED and uses[name] < 2]
    assert not uncalled, f"no caller outside the unit tests: {uncalled}"
