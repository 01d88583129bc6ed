"""Package-wide consistency: every dataclass annotation resolves, every
name a module exports exists, every error type is raised somewhere and
every selftest check has one size and one acceptance criterion."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import typing
from pathlib import Path

import ypqwave
from ypqwave import errors, selftest


def test_annotations_and_exports_resolve():
    for info in pkgutil.iter_modules(ypqwave.__path__):
        module = importlib.import_module(f"ypqwave.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ lists {name}"
        for obj in vars(module).values():
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                typing.get_type_hints(obj)


def test_every_error_type_is_raised():
    raised = set()
    for path in Path(ypqwave.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute)
                           else getattr(exc, "id", None))
    declared = {name for name, obj in vars(errors).items()
                if isinstance(obj, type) and issubclass(obj, errors.YpqError)
                and obj is not errors.YpqError}
    assert declared - raised == set()


def test_selftest_checks_have_one_size_and_one_criterion():
    checks = {name: obj for name, obj in vars(selftest).items()
              if name.startswith("check_") and callable(obj)}
    assert [name for name, fn in checks.items()
            if inspect.signature(fn).parameters] == []
    # each check in one CHECKS row, each row in one criterion 1-7, and
    # each criterion with a row
    rows = selftest.CHECKS
    assert sorted(fn.__name__ for _, _, fn in rows) == sorted(checks)
    assert {criterion for criterion, _, _ in rows} == set(range(1, 8))
