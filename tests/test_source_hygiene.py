"""Source hygiene without a linter: every import in ``src/invarcert`` is used;
every private module-level name is referenced from ``src/`` itself, so that
no helper stays alive only for the tests; no module imports another
module's private name; and every class or function is imported from the
module that defines it.  Only a few functions call into ``np.random``: the
Monte-Carlo engine draws every reduced-problem sample in one place.  No
function calls ``np.linalg.det``, which underflows to 0 and overflows where
the sign from ``np.linalg.slogdet`` does not, or ``np.linalg.eigh``: every
reduced problem builds its covariance factor directly."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "invarcert"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (at any depth) that the module never loads
    and does not list in ``__all__``."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(set(bound) - loaded - _exported(tree))


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.endswith("__")]


def unreferenced_privates(trees: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each private module-level name that no module
    loads, reads as an attribute or imports."""
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in referenced
    )


def private_imports(tree: ast.Module) -> list[str]:
    """``module.name`` for each private name imported from a sibling module."""
    return sorted(
        f"{node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for a in node.names
        if a.name.startswith("_") and not a.name.endswith("__")
    )


def misattributed_imports(tree: ast.Module, package: str) -> list[str]:
    """``module.name`` for each class or function imported from a sibling
    module that defines it elsewhere: its ``__module__`` is not
    ``package.module``.  Other values (constants, modules) are skipped."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            module = importlib.import_module(f"{package}.{node.module}")
            for a in node.names:
                obj = getattr(module, a.name)
                if ((inspect.isclass(obj) or inspect.isroutine(obj))
                        and obj.__module__ != module.__name__):
                    found.append(f"{node.module}.{a.name}")
    return sorted(found)


# the functions that may create generators or seed sequences: the engine's
# sample pair (a p_min grid's cells included), smoothed prediction, fixtures
RANDOM_STREAM_OWNERS = {"mc._samples", "mc.smooth_predict", "cli.cmd_fixture"}


def _top_level_functions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item
        else:
            yield "<module>", node


def _calls_numpy_random(node: ast.AST) -> bool:
    """A call of ``np.random.<name>`` or ``numpy.random.<name>``, or of a
    name imported from ``numpy.random``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.ImportFrom) and sub.module == "numpy.random":
            return True
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            owner = sub.func.value
            if (isinstance(owner, ast.Attribute) and owner.attr == "random"
                    and isinstance(owner.value, ast.Name) and owner.value.id in ("np", "numpy")):
                return True
    return False


def random_stream_callers(trees: dict[str, ast.Module]) -> list[str]:
    """``module.function`` for each top-level function or method (or
    ``module.<module>`` for other top-level code) that calls into
    ``np.random``."""
    return sorted({
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _top_level_functions(tree)
        if _calls_numpy_random(node)
    })


def linalg_callers(trees: dict[str, ast.Module], name: str) -> list[str]:
    """``module.function`` for each top-level function or method (or
    ``module.<module>``) that calls ``np.linalg.<name>`` or
    ``numpy.linalg.<name>``, or imports ``name`` from ``numpy.linalg``."""

    def calls(node: ast.AST) -> bool:
        for sub in ast.walk(node):
            if isinstance(sub, ast.ImportFrom) and sub.module == "numpy.linalg":
                if any(a.name == name for a in sub.names):
                    return True
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
                owner = sub.func.value
                if (sub.func.attr == name and isinstance(owner, ast.Attribute)
                        and owner.attr == "linalg" and isinstance(owner.value, ast.Name)
                        and owner.value.id in ("np", "numpy")):
                    return True
        return False

    return sorted({
        f"{module}.{function}"
        for module, tree in trees.items()
        for function, node in _top_level_functions(tree)
        if calls(node)
    })


def _source_trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports(_source_trees()[module]) == []


def test_every_private_name_is_referenced_from_src():
    assert unreferenced_privates(_source_trees()) == []


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_no_private_name_imported_from_a_sibling(module):
    assert private_imports(_source_trees()[module]) == []


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py")))
def test_names_imported_from_their_defining_module(module):
    assert misattributed_imports(_source_trees()[module], "invarcert") == []


def test_random_streams_are_made_in_few_places():
    assert sorted(set(random_stream_callers(_source_trees())) - RANDOM_STREAM_OWNERS) == []


def test_checks_catch_what_they_look_for():
    a = ast.parse(
        "import os\nimport numpy as np\nfrom .b import _used, public\n"
        "__all__ = ['public']\n_LIMIT = 3\ndef _dead():\n    return np.pi\n"
    )
    b = ast.parse("def _used():\n    pass\nclass _Orphan:\n    pass\n_x, _y = 1, 2\n")
    assert unused_imports(a) == ["_used", "os"]
    assert private_imports(a) == ["b._used"]
    assert private_imports(ast.parse("from . import __version__\nfrom .b import c")) == []
    assert unreferenced_privates({"a": a, "b": b}) == [
        "a._LIMIT", "a._dead", "b._Orphan", "b._x", "b._y"
    ]
    c = ast.parse(
        "import numpy as np\nSEED = np.random.SeedSequence(1)\n"
        "def draw(seed):\n    return np.random.default_rng(seed).normal()\n"
        "def typed(rng: np.random.Generator):\n    return rng.normal()\n"
        "class Sampler:\n    def spawn(self):\n        return numpy.random.SeedSequence(2)\n"
        "def hidden():\n    from numpy.random import default_rng\n    return default_rng(3)\n"
    )
    assert random_stream_callers({"c": c}) == [
        "c.<module>", "c.Sampler.spawn", "c.draw", "c.hidden"
    ]
    d = ast.parse(
        "import numpy as np\ndef sign(m):\n    return np.sign(np.linalg.det(m))\n"
        "def safe(m):\n    return np.linalg.slogdet(m)[0]\n"
        "class Fit:\n    def flip(self, m):\n        return numpy.linalg.det(m) < 0\n"
        "def hidden(m):\n    from numpy.linalg import det\n    return det(m)\n"
    )
    assert linalg_callers({"d": d}, "det") == ["d.Fit.flip", "d.hidden", "d.sign"]
    e = ast.parse(
        "import numpy as np\ndef factor(c):\n    return np.linalg.eigh(c)[1]\n"
        "def spectrum(c):\n    return np.linalg.eigvalsh(c)\n"
        "def hidden(c):\n    from numpy.linalg import eigh\n    return eigh(c)\n"
    )
    assert linalg_callers({"e": e}, "eigh") == ["e.factor", "e.hidden"]


def test_import_check_catches_a_name_defined_elsewhere(tmp_path, monkeypatch):
    package = tmp_path / "hygiene_selftest_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text("LIMIT = 3\nclass Thing:\n    pass\ndef make():\n    pass\n")
    (package / "b.py").write_text("import math\nfrom .a import LIMIT, Thing, make\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    tree = ast.parse(
        "from . import a\nfrom .a import LIMIT, Thing, make\n"
        "from .b import LIMIT, Thing as T, make, math\n"
    )
    assert misattributed_imports(tree, "hygiene_selftest_pkg") == ["b.Thing", "b.make"]


def test_no_det_in_src():
    assert linalg_callers(_source_trees(), "det") == []


def test_no_eigh_in_src():
    # every reduced problem builds its covariance factor directly, so no
    # covariance is eigendecomposed; eigvalsh stays allowed
    assert linalg_callers(_source_trees(), "eigh") == []
