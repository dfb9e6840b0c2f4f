"""Declaration hygiene: every error class is raised somewhere, every
private helper is used somewhere, every public name is reached from outside
the tests, every dataclass that holds an array compares by identity, no
object changes its own state after it is made, only the pipeline imports
package modules beyond ``errors`` and ``splines``, and every error that
``profiles`` raises carries details."""

import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

import pytest

import screwgen
from screwgen import errors

MODULES = sorted(Path(screwgen.__file__).parent.glob("*.py"))


def call_name(call: ast.Call) -> str | None:
    """The name a call calls, as ``f(...)`` or ``m.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def called_names(source: str) -> set[str]:
    """The names called in the source, as ``f(...)`` or ``m.f(...)``."""
    return {call_name(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)} - {None}


def unused_classes(classes, called) -> list[str]:
    """The classes that are not called by name and are no base of a class
    that is."""
    def used(cls):
        return cls.__name__ in called or any(
            used(sub) for sub in cls.__subclasses__() if sub in classes)
    return sorted(cls.__name__ for cls in classes if not used(cls))


def test_every_error_class_is_raised_or_a_base_of_one_that_is():
    classes = [cls for cls in vars(errors).values() if inspect.isclass(cls)
               and issubclass(cls, Exception)
               and cls.__module__ == errors.__name__]
    called = set().union(*(called_names(path.read_text())
                           for path in MODULES))
    assert unused_classes(classes, called) == []


def test_unused_classes_finds_a_class_nothing_calls():
    class Base(Exception):
        pass

    class Raised(Base):
        pass

    class Unused(Base):
        pass

    called = called_names("def f():\n    raise errors.Raised('x')\n")
    assert called == {"Raised"}
    assert unused_classes([Base, Raised, Unused], called) == ["Unused"]


ERROR_NAMES = {name for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, errors.ScrewgenError)}


def detail_free_errors(source: str) -> list[int]:
    """The lines on which the source constructs a ``ScrewgenError``, as
    ``E(...)`` or ``m.E(...)``, without a keyword detail."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and not node.keywords
                  and call_name(node) in ERROR_NAMES)


def test_every_profiles_error_carries_a_detail():
    source = (Path(screwgen.__file__).parent / "profiles.py").read_text()
    assert detail_free_errors(source) == []


def test_detail_free_errors_finds_an_error_without_details():
    source = ("def f(x):\n    if x:\n        raise InvalidGeometryError('a')\n"
              "    raise errors.FitError('b', x=x)\n"
              "def g(path):\n    return ProfileParseError(\n        'c')\n"
              "h = str(FitError('d', x=1))\n")
    assert detail_free_errors(source) == [3, 6]


def unreferenced_private_defs(sources) -> list[str]:
    """The functions, methods and classes named ``_x`` (dunders aside) in
    the sources that no Name, Attribute or import in them refers to."""
    defined, referenced = set(), set()
    nodes = (node for src in sources for node in ast.walk(ast.parse(src)))
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.alias):
            referenced.add(node.name)
    return sorted(name for name in defined - referenced
                  if name.startswith("_") and not name.endswith("__"))


def test_every_private_helper_is_referenced():
    sources = [path.read_text() for path in MODULES]
    assert unreferenced_private_defs(sources) == []


def test_unreferenced_private_defs_finds_a_helper_nothing_uses():
    sources = ["from .b import _imported\n"
               "def _called():\n    return _imported() + C()._method()\n"
               "def _dead():\n    pass\n"
               "class C:\n    def _method(self):\n        return _called\n"
               "    def __init__(self):\n        pass\n",
               "def _imported():\n    pass\n"]
    assert unreferenced_private_defs(sources) == ["_dead"]


def public_defs(source: str) -> list[str]:
    """The module-level functions and classes of the source, and the
    methods of its module-level classes, whose names have no leading
    underscore."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found += [node.name] + [item.name for item in node.body
                                    if isinstance(item, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            found.append(node.name)
    return [name for name in found if not name.startswith("_")]


class _References(ast.NodeVisitor):
    """The names a source refers to by a Name, an Attribute or an import,
    and with ``strings`` by a string constant that is an identifier, as a
    ``getattr`` by name does; a reference inside a definition of the same
    name does not count."""

    def __init__(self, strings: bool):
        self.strings, self.enclosing, self.found = strings, [], set()

    def visit_FunctionDef(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef

    def _add(self, name):
        if name not in self.enclosing:
            self.found.add(name)

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._add(node.name.split(".")[-1])

    def visit_Constant(self, node):
        if self.strings and isinstance(node.value, str) \
                and node.value.isidentifier():
            self._add(node.value)


def referenced_names(source: str, strings: bool = False) -> set[str]:
    visitor = _References(strings)
    visitor.visit(ast.parse(source))
    return visitor.found


def markdown_code_names(text: str) -> set[str]:
    """The identifiers in the code spans and fenced blocks of a Markdown
    text."""
    code = re.findall(r"```.*?```|`[^`\n]+`", text, re.S)
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(code)))


def unreferenced_public_defs(package, harness, readme) -> list[str]:
    """The public names defined in the package sources that neither the
    package (outside their own definitions), nor the harness sources
    (strings included), nor the README's code refers to."""
    referenced = markdown_code_names(readme).union(
        *(referenced_names(src) for src in package),
        *(referenced_names(src, strings=True) for src in harness))
    return sorted({name for src in package for name in public_defs(src)}
                  - referenced)


def test_every_public_name_is_reached_from_outside_the_tests():
    root = Path(screwgen.__file__).parents[2]
    harness = sorted((root / "perfbench").glob("*.py"))
    assert unreferenced_public_defs(
        [path.read_text() for path in MODULES],
        [path.read_text() for path in harness],
        (root / "README.md").read_text()) == []


def test_unreferenced_public_defs_finds_what_only_tests_reach():
    package = ["def used():\n    return Curve().value() + traced()\n"
               "def recursive(n):\n    return recursive(n - 1)\n"
               "def traced():\n    pass\n"
               "def by_name():\n    pass\n"
               "def documented():\n    pass\n"
               "def _private():\n    pass\n"
               "class Curve:\n    def value(self):\n        return 0\n"
               "    def point(self):\n        return self.value()\n"]
    harness = ["import package\nTRACED = ('package', 'by_name')\n"
               "package.used()\n"]
    readme = "Call `documented()`, not recursive or point.\n"
    assert unreferenced_public_defs(package, harness, readme) == [
        "point", "recursive"]


def array_dataclasses():
    """Every dataclass defined in a screwgen module with a field annotated
    as an ndarray."""
    found = []
    for path in MODULES:
        module = importlib.import_module(f"screwgen.{path.stem}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__
                    and any("ndarray" in str(f.type)
                            for f in dataclasses.fields(cls))):
                found.append(cls)
    return found


ARRAY_DATACLASSES = array_dataclasses()


@pytest.mark.parametrize("cls", ARRAY_DATACLASSES,
                         ids=[cls.__qualname__ for cls in ARRAY_DATACLASSES])
def test_dataclasses_holding_arrays_compare_by_identity(cls):
    # the generated __eq__ compares arrays, whose truth value raises, and
    # the generated __hash__ hashes them, which raises
    assert cls.__dataclass_params__.eq is False


def _writes_to(node, me: str) -> bool:
    """Whether the statement or call writes to the object named ``me``: an
    assignment, plain, augmented or annotated, to an attribute or item
    hanging from it, or ``object.__setattr__(me, ...)``.  A name that only
    indexes, as in ``flat[me.at] = v``, is read."""
    if isinstance(node, ast.Call):
        func, args = node.func, node.args
        return (isinstance(func, ast.Attribute) and func.attr == "__setattr__"
                and isinstance(func.value, ast.Name)
                and func.value.id == "object" and bool(args)
                and isinstance(args[0], ast.Name) and args[0].id == me)
    if isinstance(node, ast.Assign):
        targets = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return False
    while targets:
        target = targets.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            targets += target.elts
        elif isinstance(target, ast.Starred):
            targets.append(target.value)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name) and root.id == me:
                return True
    return False


def self_writing_methods(source: str) -> list[str]:
    """``Class.method`` for every method of a module-level class of the
    source, ``__init__`` and ``__post_init__`` aside, that writes to the
    object it is called on (its first argument)."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if (isinstance(method, ast.FunctionDef) and method.args.args
                    and method.name not in ("__init__", "__post_init__")
                    and any(_writes_to(node, method.args.args[0].arg)
                            for node in ast.walk(method))):
                found.append(f"{cls.name}.{method.name}")
    return found


def test_no_method_changes_its_object_after_it_is_made():
    # a pass handed from call to call is seen by the caller; state kept on
    # the object between calls is not
    assert [name for path in MODULES
            for name in self_writing_methods(path.read_text())] == []


def test_self_writing_methods_finds_every_form_of_write():
    source = ("class A:\n"
              "    def __init__(self):\n        self.n = 0\n"
              "    def __post_init__(self):\n"
              "        object.__setattr__(self, 'n', 1)\n"
              "    def bump(self):\n        self.n += 1\n"
              "    def put(me, k):\n        me.table[k][0] = k\n"
              "    def pair(self):\n        b, (self.a, *c) = 1, (2, 3)\n"
              "    def note(self):\n        self.x: int = 0\n"
              "    def freeze(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "    def read(self, flat, other):\n"
              "        flat[self.at] = other.x = self.x[0]\n"
              "        setattr(other, 'x', 1)\n"
              "def bump(self):\n    self.n += 1\n")
    assert self_writing_methods(source) == [
        "A.bump", "A.put", "A.pair", "A.note", "A.freeze"]


# the modules every package module may import; only ``pipeline`` imports
# the others
SHARED_MODULES = {"errors", "splines"}


def package_imports(source: str) -> set[str]:
    """The screwgen modules that the source imports, relatively
    (``from .m import x``, ``from . import m``) or by the package name
    (``import screwgen.m``, ``from screwgen.m import x``,
    ``from screwgen import m``), at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("screwgen."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                package, _, module = module.partition(".")
                if package != "screwgen":
                    continue
            found.update([module.split(".")[0]] if module
                         else (alias.name for alias in node.names))
    return found


def test_only_the_pipeline_imports_beyond_errors_and_splines():
    beyond = {path.stem: sorted(package_imports(path.read_text())
                                - SHARED_MODULES)
              for path in MODULES if path.stem != "pipeline"}
    assert {stem: names for stem, names in beyond.items() if names} == {}


def test_package_imports_finds_every_form():
    source = ("import math\nimport screwgen.control_map\n"
              "from numpy import pi\nfrom . import fitting\n"
              "from .splines import open_knots\n"
              "from screwgen import profiles as p\n"
              "from screwgen.errors import DomainError\n"
              "def f():\n    from .parameterization import egg_solve\n")
    assert package_imports(source) == {"control_map", "fitting", "splines",
                                       "profiles", "errors",
                                       "parameterization"}
