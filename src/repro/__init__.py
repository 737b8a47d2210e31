"""repro — Composing XSL Transformations with XML Publishing Views.

A reproduction of Li, Bohannon, Korth & Narayan (SIGMOD 2003). The
top-level namespace re-exports the objects a typical application needs;
see the package docs (README.md) for the architecture.

Typical use:

.. code-block:: python

    from repro import Catalog, Database, ViewBuilder, compose, parse_stylesheet

    view = ...          # build a publishing view over a Catalog
    x = parse_stylesheet(...)
    v_prime = compose(view, x, catalog)      # the stylesheet view
    doc = materialize(v_prime, db)           # == x(v(I)), straight from SQL
"""

from repro.core.compose import compose, compose_basic
from repro.errors import (
    CompositionError,
    ReproError,
    UnsupportedFeatureError,
)
from repro.relational.engine import Database
from repro.relational.schema import Catalog, Column, Table, table
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree.evaluator import ViewEvaluator, materialize
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.xmlcore.canonical import canonical_form, documents_equal
from repro.xmlcore.parser import parse_document
from repro.xmlcore.serializer import serialize, serialize_pretty
from repro.xslt.parser import parse_stylesheet
from repro.xslt.processor import XSLTProcessor, apply_stylesheet

__version__ = "1.0.0"

__all__ = [
    "compose",
    "compose_basic",
    "CompositionError",
    "ReproError",
    "UnsupportedFeatureError",
    "Database",
    "Catalog",
    "Column",
    "Table",
    "table",
    "ViewBuilder",
    "ViewEvaluator",
    "materialize",
    "SchemaNode",
    "SchemaTreeQuery",
    "canonical_form",
    "documents_equal",
    "parse_document",
    "serialize",
    "serialize_pretty",
    "parse_stylesheet",
    "XSLTProcessor",
    "apply_stylesheet",
    "__version__",
]
