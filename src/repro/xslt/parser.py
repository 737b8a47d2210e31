"""Parse stylesheet XML into the :mod:`repro.xslt.model` structures.

Accepts either a full ``<xsl:stylesheet>``/``<xsl:transform>`` document or
a bare sequence of ``<xsl:template>`` elements (the form the paper's
figures use). Namespace handling is prefix-literal: instruction elements
are recognized by the ``xsl:`` prefix, matching the figures.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import StylesheetParseError
from repro.xmlcore.nodes import Comment, Document, Element, Node, Text
from repro.xmlcore.parser import parse_document, parse_fragment
from repro.xpath.ast import ContextRef, Expr
from repro.xpath.parser import parse_expression, parse_path, parse_pattern
from repro.xslt.model import (
    ApplyTemplates,
    SortKey,
    Choose,
    ChooseWhen,
    CopyOf,
    DEFAULT_MODE,
    ForEach,
    IfInstruction,
    LiteralElement,
    OutputNode,
    Stylesheet,
    TemplateRule,
    TextOutput,
    ValueOf,
    WithParam,
    XslParam,
)

_XSL_PREFIX = "xsl:"


def parse_stylesheet(source: Union[str, Document]) -> Stylesheet:
    """Parse stylesheet text (or a pre-parsed document) into a model.

    Raises:
        StylesheetParseError: on structural problems (unknown instruction,
            missing required attribute, misplaced xsl:when, ...).
    """
    if isinstance(source, Document):
        top_nodes: list[Node] = list(source.children)
    else:
        text = source.strip()
        if text.startswith("<?xml") or text.startswith("<xsl:stylesheet") or text.startswith(
            "<xsl:transform"
        ):
            top_nodes = list(parse_document(text).children)
        else:
            top_nodes = parse_fragment(text)

    # Inside the wrapper as outside it, a declaration (xsl:import, a
    # top-level xsl:param, ...) would change the result: refused by name.
    templates: list[Element] = []
    for node in top_nodes:
        if isinstance(node, Element):
            wrapper = node.tag in ("xsl:stylesheet", "xsl:transform")
            for child in node.child_elements() if wrapper else [node]:
                if child.tag != "xsl:template":
                    raise StylesheetParseError(
                        f"unexpected top-level element <{child.tag}>"
                    )
                templates.append(child)
    if not templates:
        raise StylesheetParseError("stylesheet contains no template rules")
    stylesheet = Stylesheet()
    for template in templates:
        stylesheet.add(_parse_template(template))
    return stylesheet


def _parse_template(element: Element) -> TemplateRule:
    match_text = element.get("match")
    if match_text is None:
        raise StylesheetParseError("xsl:template requires a match attribute")
    mode = element.get("mode", DEFAULT_MODE) or DEFAULT_MODE
    priority: Optional[float] = None
    priority_text = element.get("priority")
    if priority_text is not None:
        try:
            priority = float(priority_text)
        except ValueError:
            raise StylesheetParseError(
                f"bad priority {priority_text!r} on template {match_text!r}"
            )
    params: list[XslParam] = []
    body_nodes: list[Node] = []
    leading = True
    for child in element.children:
        if (
            leading
            and isinstance(child, Element)
            and child.tag == "xsl:param"
        ):
            params.append(_parse_param(child))
            continue
        if isinstance(child, Text) and not child.value.strip():
            continue
        leading = False
        body_nodes.append(child)
    output = _parse_body(body_nodes, match_text)
    return TemplateRule(
        match=parse_pattern(match_text),
        mode=mode,
        priority=priority,
        output=output,
        params=params,
    )


def _parse_param(element: Element) -> XslParam:
    name = element.get("name")
    if not name:
        raise StylesheetParseError("xsl:param requires a name attribute")
    select = element.get("select")
    default = parse_expression(select) if select is not None else None
    return XslParam(name, default)


def _parse_body(nodes: list[Node], context: str) -> list[OutputNode]:
    output: list[OutputNode] = []
    for node in nodes:
        parsed = _parse_output_node(node, context)
        if parsed is not None:
            output.append(parsed)
    return output


def _parse_output_node(node: Node, context: str) -> Optional[OutputNode]:
    if isinstance(node, Text):
        if node.value.strip():
            return TextOutput(node.value)
        return None
    if isinstance(node, Comment):
        return None
    if not isinstance(node, Element):
        raise StylesheetParseError(f"unexpected node {node!r} in template {context!r}")
    if node.tag.startswith(_XSL_PREFIX):
        return _parse_instruction(node, context)
    literal = LiteralElement(node.tag)
    for name, value in node.attributes.items():
        if "{" in value or "}" in value:
            literal.avt_attributes[name] = _parse_avt(value, context)
        else:
            literal.attributes[name] = value
    literal.children = _parse_body(list(node.children), context)
    return literal


def _parse_avt(value: str, context: str):
    """Parse an attribute value template (``{{``/``}}`` escape braces)."""
    from repro.xslt.model import AttributeValueTemplate

    segments: list = []
    buffer: list[str] = []
    position = 0
    length = len(value)
    while position < length:
        ch = value[position]
        if ch == "{":
            if value.startswith("{{", position):
                buffer.append("{")
                position += 2
                continue
            end = _expression_end(value, position + 1)
            if end < 0:
                raise StylesheetParseError(
                    f"unterminated '{{' in attribute value template {value!r} "
                    f"(in template {context!r})"
                )
            if buffer:
                segments.append("".join(buffer))
                buffer.clear()
            segments.append(parse_expression(value[position + 1:end]))
            position = end + 1
            continue
        if ch == "}":
            if value.startswith("}}", position):
                buffer.append("}")
                position += 2
                continue
            raise StylesheetParseError(
                f"unmatched '}}' in attribute value template {value!r} "
                f"(in template {context!r})"
            )
        buffer.append(ch)
        position += 1
    if buffer:
        segments.append("".join(buffer))
    return AttributeValueTemplate(segments)


def _expression_end(value: str, start: int) -> int:
    """Where the AVT expression that starts at ``start`` ends: the first
    ``}`` outside a quoted literal (XSLT 1.0 section 7.6.2), or -1."""
    quote = None
    for index in range(start, len(value)):
        ch = value[index]
        if quote is not None:
            if ch == quote:
                quote = None
        elif ch in "\"'":
            quote = ch
        elif ch == "}":
            return index
    return -1


def _require(element: Element, attribute: str, context: str) -> str:
    value = element.get(attribute)
    if value is None:
        raise StylesheetParseError(
            f"<{element.tag}> requires a {attribute} attribute "
            f"(in template {context!r})"
        )
    return value


def _parse_instruction(element: Element, context: str) -> Optional[OutputNode]:
    name = element.tag[len(_XSL_PREFIX):]
    if name == "apply-templates":
        select_text = element.get("select", "*")
        mode = element.get("mode", DEFAULT_MODE) or DEFAULT_MODE
        with_params = []
        sorts = []
        for child in element.child_elements():
            if child.tag == "xsl:with-param":
                pname = _require(child, "name", context)
                pselect = _require(child, "select", context)
                with_params.append(WithParam(pname, parse_expression(pselect)))
            elif child.tag == "xsl:sort":
                order = child.get("order", "ascending")
                if order not in ("ascending", "descending"):
                    raise StylesheetParseError(
                        f"bad xsl:sort order {order!r} (in template {context!r})"
                    )
                data_type = child.get("data-type", "text")
                if data_type not in ("text", "number"):
                    raise StylesheetParseError(
                        f"bad xsl:sort data-type {data_type!r} "
                        f"(in template {context!r})"
                    )
                sorts.append(
                    SortKey(
                        _parse_value_select(child.get("select", ".")),
                        ascending=order == "ascending",
                        data_type=data_type,
                    )
                )
            else:
                raise StylesheetParseError(
                    f"unexpected <{child.tag}> under apply-templates"
                )
        return ApplyTemplates(parse_path(select_text), mode, with_params, sorts)
    if name == "value-of":
        select = _require(element, "select", context)
        return ValueOf(_parse_value_select(select))
    if name == "copy-of":
        select = _require(element, "select", context)
        return CopyOf(_parse_value_select(select))
    if name == "if":
        test = _require(element, "test", context)
        instruction = IfInstruction(parse_expression(test))
        instruction.children = _parse_body(list(element.children), context)
        return instruction
    if name == "choose":
        choose = Choose()
        for child in element.child_elements():
            if child.tag == "xsl:when":
                test = _require(child, "test", context)
                when = ChooseWhen(parse_expression(test))
                when.children = _parse_body(list(child.children), context)
                choose.whens.append(when)
            elif child.tag == "xsl:otherwise":
                choose.otherwise = _parse_body(list(child.children), context)
            else:
                raise StylesheetParseError(f"unexpected <{child.tag}> under xsl:choose")
        if not choose.whens:
            raise StylesheetParseError("xsl:choose requires at least one xsl:when")
        return choose
    if name == "for-each":
        select = _require(element, "select", context)
        for_each = ForEach(parse_path(select))
        body: list[Node] = []
        for child in element.children:
            if isinstance(child, Element) and child.tag == "xsl:sort":
                order = child.get("order", "ascending")
                data_type = child.get("data-type", "text")
                if order not in ("ascending", "descending") or data_type not in (
                    "text", "number",
                ):
                    raise StylesheetParseError(
                        f"bad xsl:sort attributes (in template {context!r})"
                    )
                for_each.sorts.append(
                    SortKey(
                        _parse_value_select(child.get("select", ".")),
                        ascending=order == "ascending",
                        data_type=data_type,
                    )
                )
                continue
            body.append(child)
        for_each.children = _parse_body(body, context)
        return for_each
    if name == "text":
        return TextOutput(
            "".join(c.value for c in element.children if isinstance(c, Text))
        )
    if name == "param":
        raise StylesheetParseError(
            "xsl:param is only allowed at the start of a template body"
        )
    raise StylesheetParseError(f"unsupported instruction <xsl:{name}>")


def _parse_value_select(select: str) -> Expr:
    """Parse a value-of/copy-of select; '.' stays a ContextRef."""
    text = select.strip()
    if text == ".":
        return ContextRef()
    return parse_expression(text)
