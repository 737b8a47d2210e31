"""The cold-publish catalogue: 144 stylesheets, three sources, one work.

Each variant is one of the paper's three hotel stylesheets (Figure 4,
Figure 17, the qtree-compatible Figure 4) with the literal
``<result_metro>`` result tag renamed. A renamed literal changes the
stylesheet's content fingerprint, hence the plan key and the result
key, but not the composed queries: every variant of one source costs
the same to compile, evaluate and serialize, and its output is the
source's output with that one tag replaced.

The sources are spelled out here (they are the paper's figures) rather
than imported from ``repro.workloads.paper``, whose module-level
strings are private; ``tests/test_catalogue.py`` pins each template to
the parsed stylesheet the library builds.
"""

from __future__ import annotations

import hashlib

from benchmarks.perf import config

ORIGINAL_TAG = "result_metro"

_ROOT_RULE = """
<xsl:template match="/">
  <HTML>
    <HEAD></HEAD>
    <BODY>
      <xsl:apply-templates select="metro"/>
    </BODY>
  </HTML>
</xsl:template>
"""

SOURCES = {
    "figure4": _ROOT_RULE + """
<xsl:template match="metro">
  <{tag}>
    <A></A>
    <xsl:apply-templates select="hotel/confstat"/>
  </{tag}>
</xsl:template>

<xsl:template match="confstat">
  <result_confstat>
    <B></B>
    <xsl:apply-templates select="../hotel_available/../confroom"/>
  </result_confstat>
</xsl:template>

<xsl:template match="metro/hotel/confroom">
  <xsl:value-of select="."/>
</xsl:template>
""",
    "figure17": _ROOT_RULE + """
<xsl:template match="metro">
  <{tag}>
    <A></A>
    <xsl:apply-templates select="hotel/confstat"/>
  </{tag}>
</xsl:template>

<xsl:template match="confstat">
  <result_confstat>
    <B/>
    <xsl:apply-templates select=".[@SUM_capacity&lt;200]/../hotel_available/../confroom[../confstat[@SUM_capacity&gt;100]][@capacity&gt;250]"/>
  </result_confstat>
</xsl:template>

<xsl:template match="metro[@metroname='chicago']/hotel/confroom">
  <xsl:value-of select="."/>
</xsl:template>
""",
    "qtree": """
<xsl:template match="/">
  <HTML>
    <BODY>
      <xsl:apply-templates select="metro"/>
    </BODY>
  </HTML>
</xsl:template>

<xsl:template match="metro">
  <{tag}>
    <xsl:apply-templates select="hotel/confroom"/>
  </{tag}>
</xsl:template>

<xsl:template match="metro/hotel/confroom">
  <xsl:value-of select="."/>
</xsl:template>
""",
}

BASES = tuple(SOURCES)


def variant_name(index: int) -> str:
    """Registry (and ``"view"`` parameter) name of variant ``index``."""
    return f"v{index:03d}"


def variant_base(index: int) -> str:
    """Which source variant ``index`` is derived from."""
    return BASES[index % len(BASES)]


def variant_tag(index: int, seed: int) -> str:
    """The replacement tag: seed-derived, as long as the original."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).hexdigest()
    return "r" + digest[: len(ORIGINAL_TAG) - 1]


def variant_source(index: int, seed: int) -> str:
    """Stylesheet text of variant ``index``."""
    return SOURCES[variant_base(index)].format(tag=variant_tag(index, seed))


def base_source(base: str) -> str:
    """Stylesheet text of a source with its original tag."""
    return SOURCES[base].format(tag=ORIGINAL_TAG)


def register(app, seed: int) -> dict[str, str]:
    """Register the catalogue on ``app``; returns variant name -> tag."""
    from repro.frontend.app import RegisteredView
    from repro.xslt.parser import parse_stylesheet

    view = app.registry["figure1"].view
    tags = {}
    for index in range(config.CATALOGUE_SIZE):
        name = variant_name(index)
        app.registry[name] = RegisteredView(
            name, view, parse_stylesheet(variant_source(index, seed))
        )
        tags[name] = variant_tag(index, seed)
    return tags
