"""Every public top-level name in ``src/recurlab`` has a caller, and
every public class member (method, property, field) is read: in ``src/``
itself, in the acceptance criteria or in ``perfbench/``.  A name that
only its own unit tests reach is test code living in the package."""

import ast
import io
import subprocess
import sys
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
    # the reference the set-operation property tests in test_ratintervals
    # compare union, intersect and subtract against, point by point
    ("ratintervals", "IntervalSet.contains_point"),
    # a stage's levels as an exact Fraction set: the step-by-step
    # power_image reference and the tower_power tests start from it
    ("rankone", "TowerStage.level_set"),
    # each level's source (column and level, or spacer): the Fraction
    # reference of test_rankone_cells builds the next stage's red set from it
    ("rankone", "TowerStage.column_tracks"),
    # the chain's per-edge certificates: the picked index m, the edge's
    # perturbation certificate and the telescoped bound, which ROADMAP
    # item 8's perturbation interface will report
    ("linsys", "DiagChain.m_indices"),
    ("linsys", "DiagChain.edges"),
    ("linsys", "DiagChain.tele_bounds"),
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


def _reads(path: Path) -> Counter:
    """Attribute loads, plus string literals that are one identifier."""
    reads = Counter()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            reads[node.value] += 1
    return reads


def _self_attributes(target):
    """The names x of the ``self.x`` in an assignment target, tuples and
    lists unpacked."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for t in target.elts:
            yield from _self_attributes(t)
    elif isinstance(target, ast.Starred):
        yield from _self_attributes(target.value)
    elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
          and target.value.id == "self"):
        yield target.attr


def _public_members(path: Path):
    """``Class.member`` for the methods, properties and fields of each
    top-level class, and the attributes its methods assign on ``self``."""
    for cls in ast.parse(path.read_text()).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = set()
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Assign):
                        for t in sub.targets:
                            names.update(_self_attributes(t))
                    elif isinstance(sub, ast.AnnAssign):
                        names.update(_self_attributes(sub.target))
            elif isinstance(node, ast.Assign):
                names.update(t.id for t in node.targets if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names.add(node.target.id)
        yield from (f"{cls.name}.{n}" for n in sorted(names) if not n.startswith("_"))


def test_every_public_name_has_a_caller():
    uses = Counter()
    for path in CALLERS:
        uses += _uses(path)
    uncalled = [f"{path.stem}.{name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for name in _public_names(path)
                if (path.stem, name) not in ALLOWED and uses[name] < 2]
    assert not uncalled, f"no caller outside the unit tests: {uncalled}"


def test_every_public_member_is_read():
    reads = Counter()
    for path in CALLERS:
        reads += _reads(path)
    unread = [f"{path.stem}.{member}"
              for path in sorted(PACKAGE.glob("*.py"))
              for member in _public_members(path)
              if (path.stem, member) not in ALLOWED
              and not reads[member.split(".")[1]]]
    assert not unread, f"read nowhere outside the unit tests: {unread}"


def test_tracer_installs_on_the_package():
    # perfbench's tracer looks up each name it wraps with getattr, so a
    # deleted or renamed one breaks ``--trace 1``; install it for real
    code = ("import tracer; t = tracer.Tracer(); tracer.install(t); "
            "print(len(tracer.layer_metrics(t)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": f"{ROOT / 'perfbench'}:{ROOT / 'src'}"})
    assert int(out.stdout) > 0
