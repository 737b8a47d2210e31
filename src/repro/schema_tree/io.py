"""Serialization of catalogs and schema-tree views to/from XML files.

A view definition file makes publishing views first-class artifacts: they
can be versioned, shipped, composed offline (see ``python -m repro``),
and round-tripped — including composed stylesheet views with their
projection metadata.

Formats:

.. code-block:: xml

    <catalog>
      <table name="metroarea" primary-key="metroid">
        <column name="metroid" type="INTEGER"/>
        <column name="metroname" type="TEXT"/>
      </table>
    </catalog>

    <view>
      <node tag="metro" bv="m"
            query="SELECT metroid, metroname FROM metroarea">
        <node tag="hotel" bv="h" query="SELECT * FROM hotel
              WHERE metro_id = $m.metroid"/>
      </node>
    </view>

Node attributes beyond ``tag``/``bv``/``query``: ``attr-columns`` (space
separated; ``*`` for the surface-everything default, ``-`` for none),
``attr-source-bv``, and nested ``<attr name=... value=...>`` children for
literal XML attributes.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ViewDefinitionError
from repro.relational.schema import Catalog, Column, Table
from repro.schema_tree.model import ROOT_ID, SchemaNode, SchemaTreeQuery
from repro.schema_tree.validate import validate_view
from repro.sql.parser import parse_select
from repro.sql.printer import print_select
from repro.xmlcore.nodes import Document, Element
from repro.xmlcore.parser import parse_document
from repro.xmlcore.serializer import serialize_pretty


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def catalog_to_xml(catalog: Catalog) -> str:
    """Serialize a catalog to XML text."""
    root = Element("catalog")
    for table in catalog:
        table_element = Element("table", {"name": table.name})
        if table.primary_key is not None:
            table_element.set("primary-key", table.primary_key)
        for column in table.columns:
            table_element.append(
                Element("column", {"name": column.name, "type": column.type})
            )
        for column in table.indexes:
            table_element.append(Element("index", {"column": column}))
        root.append(table_element)
    document = Document()
    document.append(root)
    return serialize_pretty(document)


def catalog_from_xml(text: str) -> Catalog:
    """Parse a catalog from XML text."""
    document = parse_document(text)
    root = document.root_element
    if root is None or root.tag != "catalog":
        raise ViewDefinitionError("expected a <catalog> document")
    catalog = Catalog()
    for table_element in root.find_children("table"):
        name = table_element.get("name")
        if not name:
            raise ViewDefinitionError("<table> requires a name attribute")
        columns = []
        for column_element in table_element.find_children("column"):
            column_name = column_element.get("name")
            if not column_name:
                raise ViewDefinitionError("<column> requires a name attribute")
            columns.append(Column(column_name, column_element.get("type", "TEXT")))
        indexes = []
        for index_element in table_element.find_children("index"):
            index_column = index_element.get("column")
            if not index_column:
                raise ViewDefinitionError("<index> requires a column attribute")
            indexes.append(index_column)
        catalog.add(
            Table(
                name,
                columns,
                primary_key=table_element.get("primary-key"),
                indexes=indexes,
            )
        )
    return catalog


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


def view_to_xml(view: SchemaTreeQuery) -> str:
    """Serialize a schema-tree view (plain or composed) to XML text."""
    root = Element("view")
    for top in view.root.children:
        _node_to_xml(top, root)
    document = Document()
    document.append(root)
    return serialize_pretty(document)


def _node_to_xml(node: SchemaNode, parent: Element) -> None:
    """Append ``node`` and its subtree to ``parent`` as ``<node>`` elements."""
    element = Element("node", {"tag": node.tag})
    if node.bv is not None:
        element.set("bv", node.bv)
    if node.tag_query is not None:
        element.set("query", print_select(node.tag_query))
    if node.attr_columns is not None:
        element.set(
            "attr-columns",
            " ".join(node.attr_columns) if node.attr_columns else "-",
        )
    if node.attr_source_bv is not None:
        element.set("attr-source-bv", node.attr_source_bv)
    for name, value in node.literal_attributes.items():
        element.append(Element("attr", {"name": name, "value": value}))
    for name, column in node.data_attributes.items():
        element.append(Element("data-attr", {"name": name, "column": column}))
    parent.append(element)
    for child in node.children:
        _node_to_xml(child, element)


def view_from_xml(
    text: str, catalog: Optional[Catalog] = None, validate: bool = True
) -> SchemaTreeQuery:
    """Parse a view definition from XML text.

    Args:
        text: the ``<view>`` document.
        catalog: when given (and ``validate``), the view is checked
            against it.
        validate: run :func:`~repro.schema_tree.validate.validate_view`.
    """
    document = parse_document(text)
    root = document.root_element
    if root is None or root.tag != "view":
        raise ViewDefinitionError("expected a <view> document")
    view = SchemaTreeQuery()
    counter = [ROOT_ID]
    for top in root.child_elements():
        _node_from_xml(top, view.root, counter)
    if validate:
        validate_view(view, catalog)
    return view


def _node_from_xml(element: Element, parent: SchemaNode, counter: list) -> None:
    """Attach the node ``element`` defines, and its subtree, to
    ``parent``; ``counter`` holds the last id given out."""
    if element.tag != "node":
        raise ViewDefinitionError(
            f"unexpected <{element.tag}> in view definition"
        )
    tag = element.get("tag")
    if not tag:
        raise ViewDefinitionError("<node> requires a tag attribute")
    counter[0] += 1
    query_text = element.get("query")
    attr_columns: Optional[list[str]] = None
    attr_spec = element.get("attr-columns")
    if attr_spec is not None:
        attr_columns = [] if attr_spec == "-" else attr_spec.split()
    node = SchemaNode(
        id=counter[0],
        tag=tag,
        bv=element.get("bv"),
        tag_query=parse_select(query_text) if query_text else None,
        attr_columns=attr_columns,
        attr_source_bv=element.get("attr-source-bv"),
    )
    for child in element.child_elements():
        if child.tag == "attr":
            name = child.get("name")
            value = child.get("value", "")
            if not name:
                raise ViewDefinitionError("<attr> requires a name attribute")
            node.literal_attributes[name] = value
            continue
        if child.tag == "data-attr":
            name = child.get("name")
            column = child.get("column")
            if not name or not column:
                raise ViewDefinitionError(
                    "<data-attr> requires name and column attributes"
                )
            node.data_attributes[name] = column
            continue
        # Defer child <node> conversion until the node is attached so
        # ids stay in document order.
    parent.add_child(node)
    for child in element.child_elements():
        if child.tag == "node":
            _node_from_xml(child, node, counter)
        elif child.tag not in ("attr", "data-attr"):
            raise ViewDefinitionError(
                f"unexpected <{child.tag}> under <node>"
            )


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def save_view(view: SchemaTreeQuery, path: str) -> None:
    """Write a view definition to ``path`` as XML."""
    with open(path, "w") as handle:
        handle.write(view_to_xml(view))


def load_view(
    path: str, catalog: Optional[Catalog] = None, validate: bool = True
) -> SchemaTreeQuery:
    """Read a view definition from ``path``."""
    with open(path) as handle:
        return view_from_xml(handle.read(), catalog, validate)


def save_catalog(catalog: Catalog, path: str) -> None:
    """Write a catalog to ``path`` as XML."""
    with open(path, "w") as handle:
        handle.write(catalog_to_xml(catalog))


def load_catalog(path: str) -> Catalog:
    """Read a catalog from ``path``."""
    with open(path) as handle:
        return catalog_from_xml(handle.read())
