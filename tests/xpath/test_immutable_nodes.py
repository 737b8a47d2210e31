"""The XPath node types are immutable, which the parse tables rest on.

``parse_path``, ``parse_pattern`` and ``parse_expression`` hand every
caller of one text the same object, so a node that could change would
carry one stylesheet's edit into every other that reads the same text.
"""

import dataclasses
import inspect
import typing
from collections.abc import Collection

import pytest

from repro.xpath import ast, patterns

NODE_TYPES = [
    cls
    for module in (ast, patterns)
    for _, cls in inspect.getmembers(module, dataclasses.is_dataclass)
    if cls.__module__ == module.__name__
]


def test_every_node_type_is_found():
    names = {cls.__name__ for cls in NODE_TYPES}
    assert {"Step", "LocationPath", "BinaryOp", "FunctionCall", "Pattern"} <= names


@pytest.mark.parametrize("cls", NODE_TYPES, ids=lambda cls: cls.__name__)
def test_a_node_type_is_frozen_and_holds_tuples(cls):
    assert cls.__dataclass_params__.frozen, f"{cls.__name__} is not frozen"
    hints = typing.get_type_hints(cls, vars(inspect.getmodule(cls)))
    for field in dataclasses.fields(cls):
        hint = hints[field.name]
        container = typing.get_origin(hint) or hint
        if isinstance(container, type) and issubclass(container, Collection):
            assert container in (tuple, str), f"{cls.__name__}.{field.name}: {hint}"
