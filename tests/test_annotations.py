"""Every annotation in the package resolves: ``from __future__ import
annotations`` keeps them as strings, so a name a module never imports fails
only when something asks for the hints."""
import importlib
import inspect
import pkgutil
import typing

import qsuperpose


def defined_objects():
    """(qualified name, object) of every function and class the package
    defines, with the methods of each class."""
    for info in pkgutil.iter_modules(qsuperpose.__path__, "qsuperpose."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            if obj.__module__ != module.__name__:
                continue
            yield f"{info.name}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_every_annotation_resolves():
    defined = dict(defined_objects())
    # The walk reaches functions, classes and methods.
    assert {"qsuperpose.nmr.run_sequence", "qsuperpose.linalg.DensityMatrix",
            "qsuperpose.nmr.PulseProgram.from_json"} <= set(defined)
    broken = {}
    for name, obj in defined.items():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            broken[name] = str(exc)
    assert broken == {}
