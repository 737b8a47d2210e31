"""Serialization of :mod:`repro.xmlcore` trees back to XML text."""

from __future__ import annotations

import re
from typing import Union

from repro.errors import XMLCharacterError
from repro.xmlcore.nodes import Comment, Document, Element, Node, Text

#: The code points XML 1.0 excludes (section 2.2), as a character-class body:
#: no character reference writes them either.
_NOT_XML = r"\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff"


def _escaper(table: dict[str, str], doc: str):
    """The escape function of ``table`` (character -> what is written); a
    code point XML cannot hold raises :class:`XMLCharacterError`."""
    # Most values hold nothing to escape and are returned as they are; the
    # one class that finds out is compiled from the table's own keys and
    # the excluded code points, so the check and the replacement cannot
    # disagree.
    special = re.compile("[" + re.escape("".join(table)) + _NOT_XML + "]")

    def replace(match) -> str:
        char = match.group()
        written = table.get(char)
        if written is None:
            raise XMLCharacterError(ord(char))
        return written

    def escape(value: str) -> str:
        if special.search(value) is None:
            return value
        return special.sub(replace, value)

    escape.__doc__ = doc
    return escape


# A parser normalises a literal carriage return away (XML 1.0, 2.11), and
# a literal newline or tab inside an attribute value to a space (3.3.3):
# all three are written as character references.
escape_text = _escaper(
    {"&": "&amp;", "<": "&lt;", ">": "&gt;", "\r": "&#13;"},
    "Escape character data for element content.",
)
escape_attribute = _escaper(
    {"&": "&amp;", "<": "&lt;", '"': "&quot;", "\n": "&#10;", "\t": "&#9;",
     "\r": "&#13;"},
    "Escape character data for a double-quoted attribute value.",
)


def attributes_text(attributes) -> str:
    """`` name="value"`` for each ``(name, value)`` pair, values escaped."""
    return "".join([f' {n}="{escape_attribute(v)}"' for n, v in attributes])


def _write_node(node: Node, parts: list[str]) -> None:
    if isinstance(node, Element):
        parts.append(f"<{node.tag}")
        for name, value in node.attributes.items():  # faster than a join each
            parts.append(f' {name}="{escape_attribute(value)}"')
        if node.children:
            parts.append(">")
            for child in node.children:
                _write_node(child, parts)
            parts.append(f"</{node.tag}>")
        else:
            parts.append("/>")
    elif isinstance(node, Text):
        parts.append(escape_text(node.value))
    elif isinstance(node, Comment):
        parts.append(f"<!--{node.value}-->")
    elif isinstance(node, Document):
        for child in node.children:
            _write_node(child, parts)
    else:  # pragma: no cover - defensive
        raise TypeError(f"cannot serialize {type(node).__name__}")


def serialize(node: Union[Node, list[Node]]) -> str:
    """Serialize a node (or list of nodes) to compact XML text.

    Documents serialize as their children; no XML declaration is emitted.
    """
    parts: list[str] = []
    if isinstance(node, list):
        for item in node:
            _write_node(item, parts)
    else:
        _write_node(node, parts)
    return "".join(parts)


def _write_pretty(node: Node, parts: list[str], indent: str, depth: int) -> None:
    pad = indent * depth
    if isinstance(node, Element):
        parts.append(f"{pad}<{node.tag}{attributes_text(node.attributes.items())}")
        element_children = [c for c in node.children if isinstance(c, (Element, Comment))]
        text_children = [c for c in node.children if isinstance(c, Text)]
        if not node.children:
            parts.append("/>\n")
        elif element_children and not any(t.value.strip() for t in text_children):
            parts.append(">\n")
            for child in element_children:
                _write_pretty(child, parts, indent, depth + 1)
            parts.append(f"{pad}</{node.tag}>\n")
        else:
            # Mixed or text-only content: keep on one line to preserve text.
            parts.append(">")
            for child in node.children:
                _write_node(child, parts)
            parts.append(f"</{node.tag}>\n")
    elif isinstance(node, Comment):
        parts.append(f"{pad}<!--{node.value}-->\n")
    elif isinstance(node, Text):
        if node.value.strip():
            parts.append(f"{pad}{escape_text(node.value)}\n")
    elif isinstance(node, Document):
        for child in node.children:
            _write_pretty(child, parts, indent, depth)


def serialize_pretty(node: Union[Node, list[Node]], indent: str = "  ") -> str:
    """Serialize with indentation, for human-readable output.

    Whitespace-only text nodes are dropped; elements with significant text
    content keep their children inline so the text is not distorted.
    """
    parts: list[str] = []
    if isinstance(node, list):
        for item in node:
            _write_pretty(item, parts, indent, 0)
    else:
        _write_pretty(node, parts, indent, 0)
    return "".join(parts)
