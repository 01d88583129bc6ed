"""Package-wide consistency: every dataclass annotation resolves and every
name a module exports exists."""

import dataclasses
import importlib
import pkgutil
import typing

import ypqwave


def test_annotations_and_exports_resolve():
    for info in pkgutil.iter_modules(ypqwave.__path__):
        module = importlib.import_module(f"ypqwave.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{info.name}.__all__ lists {name}"
        for obj in vars(module).values():
            if (dataclasses.is_dataclass(obj) and isinstance(obj, type)
                    and obj.__module__ == module.__name__):
                typing.get_type_hints(obj)
