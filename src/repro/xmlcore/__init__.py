"""From-scratch XML substrate: node model, parser, serializer, canonical form.

This package supplies the document model used throughout the library: XML
publishing views materialize into these nodes, the XPath engine navigates
them, and the XSLT interpreter builds result fragments out of them.

The model is deliberately small (no namespaces-as-objects, no DTDs): just
elements with ordered attributes, text, and comments — exactly what the
paper's publishing model needs — but the parser accepts general well-formed
XML including CDATA sections and character references.
"""

from repro.errors import XMLCharacterError
from repro.xmlcore.nodes import (
    Comment,
    Document,
    Element,
    Node,
    Text,
)
from repro.xmlcore.parser import parse_document, parse_fragment
from repro.xmlcore.serializer import serialize, serialize_pretty
from repro.xmlcore.canonical import canonical_form, documents_equal, elements_equal

__all__ = [
    "Comment",
    "Document",
    "Element",
    "Node",
    "Text",
    "XMLCharacterError",
    "parse_document",
    "parse_fragment",
    "serialize",
    "serialize_pretty",
    "canonical_form",
    "documents_equal",
    "elements_equal",
]
