"""No test-only helpers in the package: every public top-level function and
class of ``src/hypercf`` is reached by program code other than its own
definition, in ``src/``, ``demos/`` or ``perfbench/`` (its tests excluded).

A name counts as reached where code names it: a Name, an Attribute, an
import alias, or a string constant that is an identifier, since perfbench
binds functions by string."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypercf"


def program_files():
    for top in (ROOT / "src", ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(top.rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                yield path


def names_in(tree) -> Counter:
    """How often each identifier is named in ``tree``."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    return found


def test_every_public_name_is_reached_outside_its_definition():
    uses, defined = Counter(), []
    for path in program_files():
        tree = ast.parse(path.read_text(encoding="utf-8"))
        uses += names_in(tree)
        if path.parent == PACKAGE:
            defined += [(path.stem, node) for node in tree.body
                        if isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef,
                                             ast.ClassDef))
                        and not node.name.startswith("_")]
    assert len(defined) > 100
    unused = [f"{module}.{node.name}" for module, node in defined
              if uses[node.name] == names_in(node)[node.name]]
    assert not unused, f"public names nothing else reaches: {unused}"
