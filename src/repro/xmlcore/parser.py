"""Read XML text into :mod:`repro.xmlcore.nodes` trees.

The tokenizer is the standard library's ``xml.parsers.expat``; this module
turns its events into a tree and keeps the reader's dialect:

* only the five predefined entities and character references: an
  ``<!ENTITY`` declaration is refused, and so is a DOCTYPE after which
  expat would skip an unknown reference instead of reporting it (one that
  names an external subset or references a parameter entity, in a
  document not declared standalone);
* processing instructions are dropped, and so are comments before the
  root element;
* a CDATA section is a :class:`Text` node of its own;
* namespace prefixes are literal parts of names (``xsl:template`` is a tag
  named ``"xsl:template"``), which is what the stylesheet parser wants.

XML 1.0's normalizations apply: a CR or CR LF line end reads as LF (2.11),
and a TAB, CR or LF inside an attribute value as a space (3.3.3).
Well-formedness violations raise :class:`~repro.errors.XMLParseError` with
a 1-based line and column.
"""

from __future__ import annotations

import re
from xml.parsers import expat

from repro.errors import XMLParseError
from repro.xmlcore.nodes import Comment, Document, Element, Node, Text

# A fragment is read as the content of this element, placed after a
# leading XML declaration (which must stay first).
_WRAPPER = "fragment"
_DECLARATION = re.compile(r"<\?xml\s.*?\?>", re.DOTALL)


class _Builder:
    """Expat handlers that grow one document; single use."""

    def __init__(self) -> None:
        self.document = Document()
        self.parent: Document | Element = self.document
        self.text: list[str] = []
        self.parser = parser = expat.ParserCreate(encoding="utf-8")
        parser.buffer_text = True
        parser.specified_attributes = True  # no defaults from an ATTLIST
        parser.StartElementHandler = self.start
        parser.EndElementHandler = self.end
        parser.CharacterDataHandler = self.text.append
        parser.CommentHandler = self.comment
        parser.StartCdataSectionHandler = self.flush
        parser.EndCdataSectionHandler = self.end_cdata
        # Dropped, but a text run still ends at one.
        parser.ProcessingInstructionHandler = lambda target, data: self.flush()
        parser.EntityDeclHandler = self.entity_declaration
        parser.NotStandaloneHandler = self.not_standalone

    def flush(self) -> None:
        if self.text:
            self.parent.append(Text("".join(self.text)))
            self.text.clear()

    def start(self, tag: str, attributes: dict[str, str]) -> None:
        self.flush()
        self.parent = self.parent.append(Element(tag, attributes))

    def end(self, tag: str) -> None:
        self.flush()
        self.parent = self.parent.parent

    def comment(self, value: str) -> None:
        self.flush()
        if self.parent is not self.document or self.document.children:
            self.parent.append(Comment(value))

    def end_cdata(self) -> None:
        self.parent.append(Text("".join(self.text)))  # even an empty one
        self.text.clear()

    def refuse(self, message: str):
        raise XMLParseError(
            message, self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber + 1
        )

    def entity_declaration(self, name: str, *_) -> None:
        self.refuse(f"entity declaration {name!r} not supported")

    def not_standalone(self) -> None:
        # Expat would skip an undeclared entity from here on (and drop one
        # inside an attribute value without any event).
        self.refuse("external DTD subset or parameter entity reference not supported")

    def read(self, source: str, inserted: tuple[int, int, int]) -> Document:
        """Parse ``source``; ``inserted`` is the (line, 0-based column,
        width) of markup the caller added, which error columns skip."""
        try:
            # A lone surrogate becomes bytes expat rejects with a position.
            self.parser.Parse(source.encode("utf-8", "surrogatepass"), True)
        except expat.ExpatError as exc:
            line, column, width = inserted
            offset = exc.offset
            if exc.lineno == line and offset >= column:
                offset -= width
            raise XMLParseError(expat.ErrorString(exc.code), exc.lineno, offset + 1) from None
        finally:
            self.parser = None  # no cycle through the bound handlers
        return self.document


def parse_document(source: str) -> Document:
    """Parse a complete XML document.

    Args:
        source: the XML text.

    Returns:
        The parsed :class:`~repro.xmlcore.nodes.Document`.

    Raises:
        XMLParseError: if the input is not well-formed.
    """
    return _Builder().read(source, (0, 0, 0))


def parse_fragment(source: str) -> list[Node]:
    """Parse an XML fragment (mixed content, any number of top-level nodes).

    Useful for template-rule bodies, which are fragments rather than
    documents.
    """
    declaration = _DECLARATION.match(source)
    head = declaration.end() if declaration else 0
    line = source.count("\n", 0, head) + 1
    column = head - (source.rfind("\n", 0, head) + 1)
    text = f"{source[:head]}<{_WRAPPER}>{source[head:]}</{_WRAPPER}>"
    wrapper = _Builder().read(text, (line, column, len(_WRAPPER) + 2)).root_element
    for child in wrapper.children:
        child.parent = None
    return wrapper.children
