"""The public surface is the surface the experiments use.

Every function and class that ``arrowlab`` exports, and every public method
and property of an exported class, must run when each experiment of the
registry runs once at a small size (and each choice of :data:`CHOICES` runs
once more), or be listed below as library-only; and
no module of the package reaches into another module's private ``_names``.
"""

import ast
import inspect
import pathlib
import sys

import pytest

import arrowlab
from arrowlab import experiments
from arrowlab.cli import main

# exports, and ``Class.member`` names, that no experiment reaches, kept for
# library users on purpose
LIBRARY_ONLY: frozenset[str] = frozenset()

# small values for the parameters that set an experiment's size
SMALL = {"trials": "2", "restarts": "2", "max-iter": "5", "collisions": "3"}


def small_argv(name: str) -> list[str]:
    keys = {p.key for p in experiments.EXPERIMENTS[name].params}
    return [name, *(arg for key, value in SMALL.items() if key in keys for arg in (f"--{key}", value))]


# the choices that reach code the defaults do not, each run once more at a
# small size
CHOICES = [("collide", "--init", "random")]


def walk_argvs() -> list[list[str]]:
    return [small_argv(name) for name in experiments.EXPERIMENTS] + [[*small_argv(name), *flag] for name, *flag in CHOICES]


def own_code(obj) -> set:
    """The code of a function, or of the functions a class defines itself
    (with the ``__init__`` a dataclass writes for it); empty for a value or a
    class that defines none, such as an Enum."""
    if inspect.isfunction(obj):
        return {obj.__code__}
    if not inspect.isclass(obj):
        return set()
    members = (getattr(member, "__func__", member) for member in vars(obj).values())
    return {
        member.__code__
        for member in members
        if inspect.isfunction(member) and member.__qualname__.startswith(obj.__qualname__ + ".")
    }


def public_members(cls) -> dict[str, object]:
    """The code of each public method, class or static method and property
    that a class defines itself, by ``Class.member`` name; dunders and
    plain values (a dataclass field's default, an Enum member) are left
    out."""
    found = {}
    for name, member in vars(cls).items():
        function = member.fget if isinstance(member, property) else getattr(member, "__func__", member)
        if not name.startswith("_") and inspect.isfunction(function):
            found[f"{cls.__name__}.{name}"] = function.__code__
    return found


class _Probe:
    value = 1

    def __init__(self):
        pass

    def method(self):
        pass

    @property
    def prop(self):
        return 0

    @classmethod
    def build(cls):
        pass

    @staticmethod
    def helper():
        pass

    def _private(self):
        pass


def test_public_members_are_methods_and_properties():
    assert sorted(public_members(_Probe)) == ["_Probe.build", "_Probe.helper", "_Probe.method", "_Probe.prop"]


def test_every_export_is_reached_by_an_experiment(capsys):
    assert set(SMALL) <= {p.key for e in experiments.EXPERIMENTS.values() for p in e.params}
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    argvs = walk_argvs()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [0] * len(argvs)

    exports = {name: obj for name, obj in vars(arrowlab).items() if not name.startswith("_") and not inspect.ismodule(obj)}
    assert LIBRARY_ONLY <= exports.keys()
    unreached = {name for name, obj in exports.items() if own_code(obj) and not own_code(obj) & reached}
    members = {name: code for obj in exports.values() if inspect.isclass(obj) for name, code in public_members(obj).items()}
    assert members  # methods such as RandomSource.children are checked one by one
    unreached |= {name for name, code in members.items() if code not in reached}
    assert sorted(unreached) == sorted(LIBRARY_ONLY)


# ---------------------------------------------------------------------------
# private names stay inside their module
# ---------------------------------------------------------------------------

PACKAGE = pathlib.Path(arrowlab.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _from_package(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".")[0] == "arrowlab"


def private_reads(source: str) -> list[str]:
    """Each private name that ``source`` imports from another module of the
    package, or reads as an attribute of a name bound to one (a module, or
    anything imported from one)."""
    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _from_package(node):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports {alias.name}")
                bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "arrowlab":
                    bound.add(alias.asname or "arrowlab")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                found.append(f"line {node.lineno}: reads {ast.unparse(node)}")
    return found


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from .core import _integer", 1),
        ("from arrowlab.core import RandomSource as R, _key_array", 1),
        ("from . import arrow\narrow._descend()", 1),
        ("import arrowlab.core as c\nc._MASK32", 1),
        ("import arrowlab.core\narrowlab.core._MASK32", 1),
        ("from .core import RandomSource\nRandomSource._hidden", 1),
        ("from . import __version__, experiments\nexperiments.__name__", 0),
        ("def _helper():\n    pass\n_helper()\nself._cache", 0),
        ("import numpy as np\nnp._NoValue", 0),
    ],
    ids=["from-sibling", "from-package", "module-attribute", "module-alias", "dotted-module",
         "imported-class", "dunders", "own-names", "other-package"],
)
def test_private_reads_are_found(source, expected):
    assert len(private_reads(source)) == expected


def test_no_module_reads_another_modules_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 7
    found = {path.name: private_reads(path.read_text()) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}
