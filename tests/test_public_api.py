"""The package exports only names that a non-test caller uses, and its
modules import in one direction.

Every name in ``msacontrol.__all__`` must be used by the ``msactl``
command, by the benchmark under ``perfbench/`` or be documented for user
code in the README, and every public function and class of a submodule
must have a caller outside the tests.  A function that only tests call
belongs in ``tests/references.py`` when it is a reference the tests
compare against, and nowhere otherwise.
"""

import ast
import inspect
import re
from pathlib import Path

import msacontrol

ROOT = Path(__file__).resolve().parent.parent
OUTSIDE = [ROOT / "README.md"] + sorted((ROOT / "perfbench").glob("*.py"))
CALLERS = OUTSIDE + [ROOT / "src" / "msacontrol" / "cli.py"]
# each module may import only from modules before it; the package imports last
LAYERS = ["problem", "sde", "bsde", "msa", "oracle", "diagnostics", "cli", "__init__"]


def test_every_exported_name_has_a_non_test_caller():
    text = "\n".join(path.read_text(encoding="utf-8") for path in CALLERS)
    orphans = [n for n in msacontrol.__all__ if not re.search(rf"\b{n}\b", text)]
    assert orphans == []


def _names_read(nodes):
    """Bare and attribute names that the given statements read."""
    found = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                found.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                found.add(sub.attr)
    return found


def test_every_public_definition_has_a_non_test_caller():
    """A public module-level function or class is read by code other than its own definition.

    Callers are the other statements of its module, the other submodules,
    ``perfbench/*.py`` and the README; the package's re-export does not count.
    """
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "msacontrol").glob("*.py"))
        if path.stem != "__init__"
    }
    text = "\n".join(path.read_text(encoding="utf-8") for path in OUTSIDE)
    orphans = []
    for stem, tree in trees.items():
        elsewhere = set().union(*(_names_read(t.body) for s, t in trees.items() if s != stem))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            rest = [other for other in tree.body if other is not node]
            if node.name in elsewhere | _names_read(rest):
                continue
            if not re.search(rf"\b{node.name}\b", text):
                orphans.append((stem, node.name))
    assert orphans == []


def test_all_lists_exactly_the_public_names_bound():
    bound = {
        name
        for name, value in vars(msacontrol).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(msacontrol.__all__) == len(set(msacontrol.__all__))
    assert set(msacontrol.__all__) == bound


def test_modules_import_only_earlier_layers():
    """Every relative import, TYPE_CHECKING blocks included, points down the layers."""
    sources = sorted((ROOT / "src" / "msacontrol").glob("*.py"))
    assert sorted(path.stem for path in sources) == sorted(LAYERS)
    upward = []
    for path in sources:
        rank = LAYERS.index(path.stem)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else [a.name for a in node.names]
                upward += [
                    (path.stem, t) for t in targets if LAYERS.index(t.split(".")[0]) >= rank
                ]
    assert upward == []


# what a kernel parameter is, by its name or its annotation
ROLES = {
    "p": "problem",
    "ControlProblem": "problem",
    "states": "states",
    "StateEnsemble": "states",
    "adjoint": "adjoint",
    "AdjointEnsemble": "adjoint",
}


def test_kernels_take_one_ensemble():
    """No public kernel takes a problem with states or an adjoint, or states with an adjoint.

    The states carry their problem and the adjoint its states, so a second
    argument could only disagree with the first.
    """
    mixed = []
    for stem in ("sde", "bsde", "msa"):
        tree = ast.parse((ROOT / "src" / "msacontrol" / f"{stem}.py").read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            roles = set()
            for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs:
                ann = arg.annotation
                roles |= {ROLES.get(arg.arg), ROLES.get(ann.id if isinstance(ann, ast.Name) else None)}
            if len(roles - {None}) > 1:
                mixed.append((stem, node.name, sorted(roles - {None})))
    assert mixed == []


def _calls_to(node, name):
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Call) and name in _names_read([sub.func])]


def test_one_owner_makes_the_noise_bank():
    """``src/`` calls ``make_noise`` once, in ``MsaConfig.bank``.

    The solver and its oracles then price on one bank, and the benchmark's
    tracer, which patches ``msacontrol.msa.make_noise``, sees every bank.
    """
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "src" / "msacontrol").glob("*.py"))
    }
    counts = {stem: len(_calls_to(tree, "make_noise")) for stem, tree in trees.items()}
    assert {stem: n for stem, n in counts.items() if n} == {"msa": 1}
    (config,) = [n for n in trees["msa"].body if isinstance(n, ast.ClassDef) and n.name == "MsaConfig"]
    (bank,) = [n for n in config.body if isinstance(n, ast.FunctionDef) and n.name == "bank"]
    assert len(_calls_to(bank, "make_noise")) == 1
