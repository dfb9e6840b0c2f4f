"""Declaration hygiene: every error class is raised somewhere, and every
dataclass that holds an array compares by identity."""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import screwgen
from screwgen import errors

MODULES = sorted(Path(screwgen.__file__).parent.glob("*.py"))


def called_names(source: str) -> set[str]:
    """The names called in the source, as ``f(...)`` or ``m.f(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                names.add(func.id)
            elif isinstance(func, ast.Attribute):
                names.add(func.attr)
    return names


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
