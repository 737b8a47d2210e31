"""XSLT substrate: stylesheet model, parser, and the PROCESS interpreter.

Implements Definitions 2-3 and Figure 5 of the paper: template rules with
match patterns, modes and priorities; output-tree fragments containing
``apply-templates``, ``value-of``/``copy-of``, flow control (``if``,
``choose``, ``for-each``) and parameters.

Output formatting follows the paper's publishing model (DESIGN.md,
semantics decision 1): ``<xsl:value-of select="."/>`` emits the context
*element* (tag and attributes), ``select="@a"`` emits the attribute value
as text. Standard string-value semantics are available via
``XSLTProcessor(string_value_mode=True)``.
"""

from repro.xslt.model import (
    ApplyTemplates,
    Choose,
    CopyOf,
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
    stylesheet_shape,
)
from repro.xslt.parser import parse_stylesheet
from repro.xslt.processor import ProcessStats, XSLTProcessor, apply_stylesheet

__all__ = [
    "ApplyTemplates",
    "Choose",
    "CopyOf",
    "ForEach",
    "IfInstruction",
    "LiteralElement",
    "OutputNode",
    "Stylesheet",
    "TemplateRule",
    "TextOutput",
    "ValueOf",
    "WithParam",
    "XslParam",
    "parse_stylesheet",
    "ProcessStats",
    "XSLTProcessor",
    "apply_stylesheet",
    "stylesheet_shape",
]
