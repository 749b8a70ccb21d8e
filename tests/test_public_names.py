"""No test-only helpers in the package: every public top-level function and
class of ``src/hypercf`` is reached by program code other than its own
definition, in ``src/``, ``demos/`` or ``perfbench/`` (its tests excluded),
and every defaulted parameter of a public function or method is passed by
some call in that code, unless an allowlist gives the reason it stays.

A name counts as reached where code names it: a Name, an Attribute, an
import alias, or a string constant that is an identifier, since perfbench
binds functions by string. A parameter counts as passed by a call to a
function of its name (a class's for ``__init__``) that names it as a
keyword or gives enough positional arguments to reach it."""

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


# defaulted parameters no program call passes, each with why it stays
UNPASSED = {
    "autodiff.constant(dtype)": "tests build fixed-dtype constants",
    "autodiff.grad_check(tolerance)": "a test tightens it",
    "cli.main(argv)": "the entry point reads sys.argv",
    "evaluation.evaluate_scores(cutoffs)": "perfbench binds it by string",
    "trainer.resume(out_dir)": "public API with no CLI command yet",
    "trainer.resume(log_fn)": "public API with no CLI command yet",
}


def defaulted_parameters(module, tree):
    """(label, callee name, parameter, positional index or None) for each
    defaulted parameter of the module's public functions and methods."""
    def params(label, callee, fn, bound):
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], first - bound):
            yield f"{label}({arg.arg})", callee, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{label}({arg.arg})", callee, arg.arg, None

    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield from params(f"{module}.{node.name}", node.name, node, 0)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef) or (
                        fn.name.startswith("_") and fn.name != "__init__"):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                callee = node.name if fn.name == "__init__" else fn.name
                yield from params(f"{module}.{node.name}.{fn.name}", callee,
                                  fn, 0 if static else 1)


def test_every_defaulted_parameter_is_passed_by_program_code():
    keywords, positional = set(), Counter()  # callee -> most positionals
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id",
                                 getattr(node.func, "attr", None))
                keywords.update((callee, k.arg) for k in node.keywords)
                positional[callee] = max(positional[callee], len(node.args))
    found, unpassed = 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for label, callee, name, index in defaulted_parameters(path.stem,
                                                               tree):
            found += 1
            if (callee, name) not in keywords and (
                    index is None or positional[callee] <= index):
                unpassed.add(label)
    assert found > 40
    flagged = sorted(unpassed - set(UNPASSED))
    assert not flagged, f"defaulted parameters no program call passes: " \
        f"{flagged}"
    stale = sorted(set(UNPASSED) - unpassed)
    assert not stale, f"allowlisted parameters gone or now passed: {stale}"
