"""XML node model with parent pointers and stable document positions.

The model distinguishes four node kinds:

* :class:`Document` — the (invisible) document root; holds top-level children.
* :class:`Element` — a tagged node with ordered attributes and children.
* :class:`Text` — character data.
* :class:`Comment` — an XML comment (preserved by the parser, ignored by
  XPath and XSLT processing).

Attributes are stored in an ordered ``dict`` on the element (Python dicts
preserve insertion order), which matches the publishing model of the paper:
relational columns of a tag query surface as XML attributes of the generated
element.

Every node knows its :attr:`~Node.parent`, which the XPath ``parent`` axis
and the XSLT match semantics (suffix matching against the incoming path)
rely on. The link is weak: ``children`` holds a tree down and nothing
holds it up, so a tree is acyclic and reference counting frees it the
moment its last holder drops it — no full collection has to find it.
The contract that follows: a node reaches its ancestors only while
something else holds them; a node kept on its own after its document is
dropped reads ``parent is None``, as a detached node does.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional
from weakref import ref


class Node:
    """Base class for all XML nodes."""

    __slots__ = ("_parent", "__weakref__")

    def __init__(self) -> None:
        self._parent: Optional[ref] = None

    @property
    def parent(self) -> Optional["Node"]:
        """The node this one is a child of, while that node is alive."""
        link = self._parent
        return None if link is None else link()

    @parent.setter
    def parent(self, node: Optional["Node"]) -> None:
        # A callback-free ref is shared by every referrer of ``node``:
        # siblings hold one ref object between them.
        self._parent = None if node is None else ref(node)

    def root(self) -> "Node":
        """Return the topmost live ancestor (the document, for attached
        nodes while it is held)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        """Yield ancestors from the parent up to (and including) the root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


class _ParentNode(Node):
    """Shared behaviour for nodes that own an ordered list of children."""

    __slots__ = ("children",)

    def __init__(self) -> None:
        super().__init__()
        self.children: list[Node] = []

    # Tree building writes ``_parent`` itself: the property setter is a
    # Python call per node, and ``extend`` makes its one ref once.

    def append(self, child: Node) -> Node:
        """Attach ``child`` as the last child and return it."""
        child._parent = ref(self)
        self.children.append(child)
        return child

    def extend(self, children: Iterable[Node]) -> None:
        """Attach every node in ``children`` in order."""
        link = ref(self)
        own = self.children
        for child in children:
            child._parent = link
            own.append(child)

    def remove(self, child: Node) -> None:
        """Detach ``child``; raises ``ValueError`` if it is not a child."""
        self.children.remove(child)
        child._parent = None

    def child_elements(self) -> list["Element"]:
        """Return the element children, in document order."""
        return [c for c in self.children if isinstance(c, Element)]

    def iter_elements(self) -> Iterator["Element"]:
        """Yield all descendant elements in document order (pre-order)."""
        for child in self.children:
            if isinstance(child, Element):
                yield child
                yield from child.iter_elements()

    def descendant_count(self) -> int:
        """Count all descendant nodes (elements, text, comments)."""
        total = 0
        for child in self.children:
            total += 1
            if isinstance(child, _ParentNode):
                total += child.descendant_count()
        return total


class Document(_ParentNode):
    """The document root. Holds exactly one element child in valid XML.

    The schema-tree evaluator relaxes the single-root requirement while a
    view is being materialized (sibling top-level elements per tag-query
    tuple), wrapping the result in a synthetic root element at the end.
    """

    __slots__ = ()

    @property
    def root_element(self) -> Optional["Element"]:
        """Return the first element child, or ``None`` for an empty document."""
        for child in self.children:
            if isinstance(child, Element):
                return child
        return None

    def __repr__(self) -> str:
        return f"Document({len(self.children)} children)"


class Element(_ParentNode):
    """An XML element: tag, ordered attributes, children."""

    __slots__ = ("tag", "attributes")

    def __init__(self, tag: str, attributes: Optional[dict[str, str]] = None):
        super().__init__()
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes) if attributes else {}

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Return the value of attribute ``name``, or ``default``."""
        return self.attributes.get(name, default)

    def set(self, name: str, value: str) -> None:
        """Set attribute ``name`` to ``value`` (stringified)."""
        self.attributes[name] = value

    def text_content(self) -> str:
        """Concatenate all descendant text, in document order."""
        parts: list[str] = []
        for child in self.children:
            if isinstance(child, Text):
                parts.append(child.value)
            elif isinstance(child, Element):
                parts.append(child.text_content())
        return "".join(parts)

    def find_children(self, tag: str) -> list["Element"]:
        """Return child elements with the given tag, in document order."""
        return [c for c in self.children if isinstance(c, Element) and c.tag == tag]

    def first_child(self, tag: str) -> Optional["Element"]:
        """Return the first child element with the given tag, or ``None``."""
        for child in self.children:
            if isinstance(child, Element) and child.tag == tag:
                return child
        return None

    def shallow_copy(self) -> "Element":
        """Return a detached copy with the same tag and attributes, no children."""
        return Element(self.tag, dict(self.attributes))

    def deep_copy(self) -> "Element":
        """Return a detached recursive copy of this element."""
        copy = self.shallow_copy()
        for child in self.children:
            if isinstance(child, Element):
                copy.append(child.deep_copy())
            elif isinstance(child, Text):
                copy.append(Text(child.value))
            elif isinstance(child, Comment):
                copy.append(Comment(child.value))
        return copy

    def __repr__(self) -> str:
        attrs = " ".join(f'{k}="{v}"' for k, v in self.attributes.items())
        head = f"<{self.tag} {attrs}>" if attrs else f"<{self.tag}>"
        return f"Element({head}, {len(self.children)} children)"


class Text(Node):
    """A run of character data."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        preview = self.value if len(self.value) <= 40 else self.value[:37] + "..."
        return f"Text({preview!r})"


class Comment(Node):
    """An XML comment. Preserved on parse, skipped by query evaluation."""

    __slots__ = ("value",)

    def __init__(self, value: str):
        super().__init__()
        self.value = value

    def __repr__(self) -> str:
        return f"Comment({self.value!r})"
