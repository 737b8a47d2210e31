"""Content fingerprints for plan-cache keys.

The :class:`~repro.serving.plan_cache.PlanCache` must key compiled plans
by *content*, not object identity: two requests carrying structurally
identical (catalog, view, stylesheet) triples share one compiled plan,
and editing a single stylesheet template yields a different key — an
immediate, correct cache miss with no explicit invalidation needed.

Each input is reduced to a canonical text and hashed with SHA-256:

* **catalog** — its XML serialization
  (:func:`repro.schema_tree.io.catalog_to_xml`), which covers tables,
  columns, types, keys, and indexes;
* **view** — its XML serialization
  (:func:`repro.schema_tree.io.view_to_xml`), which prints every tag
  query deterministically through the SQL printer;
* **stylesheet** — the ``repr`` of the parsed model, a pure dataclass
  tree (no memory addresses), so any change to a match pattern, mode,
  priority, or rule body changes the text — read as its shape plus
  literals, the shape alone keying skeletons (:func:`skeleton_key`).

The composed plan key additionally folds in the optimizer-pass
fingerprints
(:data:`repro.core.compose.COMPOSE_PASS_FINGERPRINT`,
:data:`repro.core.optimize.PRUNE_PASS_FINGERPRINT`), so cached plans
self-invalidate when a pass's semantics are revised.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Any, Callable, Optional

from repro.core.compose import COMPOSE_PASS_FINGERPRINT
from repro.core.optimize import PRUNE_PASS_FINGERPRINT
from repro.relational.schema import Catalog
from repro.schema_tree.io import catalog_to_xml, view_to_xml
from repro.schema_tree.model import SchemaTreeQuery
from repro.xslt.model import Stylesheet, stylesheet_shape


#: Identity-keyed memo of view/stylesheet fingerprints (and a stylesheet's
#: literals and uncompiled shape). Serializing and hashing a view on
#: every request costs a measurable fraction of a warm
#: cache hit, and servers render the same handful of view/stylesheet
#: *objects* over and over — so fingerprints are cached per object id
#: (with the object kept referenced so ids cannot be recycled), exactly
#: the scheme the engine's SQL-text cache uses. Bounded FIFO; guarded by
#: a lock because requests fingerprint concurrently.
_FINGERPRINT_MEMO: dict[int, tuple[object, str]] = {}
_FINGERPRINT_MEMO_LIMIT = 256
_FINGERPRINT_LOCK = threading.Lock()


def _memoized(obj: object, compute: Callable[[], Any]) -> Any:
    key = id(obj)
    with _FINGERPRINT_LOCK:
        entry = _FINGERPRINT_MEMO.get(key)
        if entry is not None and entry[0] is obj:
            return entry[1]
    value = compute()
    with _FINGERPRINT_LOCK:
        while len(_FINGERPRINT_MEMO) >= _FINGERPRINT_MEMO_LIMIT:
            _FINGERPRINT_MEMO.pop(next(iter(_FINGERPRINT_MEMO)))
        _FINGERPRINT_MEMO[key] = (obj, value)
    return value


def clear_fingerprint_memo() -> int:
    """Drop every memoized fingerprint; returns how many were dropped.

    Used by tests that mutate a view or stylesheet *in place* (content
    fingerprints assume the usual build-once/never-mutate usage; after
    an in-place edit the memo would be stale).
    """
    with _FINGERPRINT_LOCK:
        dropped = len(_FINGERPRINT_MEMO)
        _FINGERPRINT_MEMO.clear()
        return dropped


def fingerprint_text(*parts: str) -> str:
    """SHA-256 over the given text parts, length-prefixed per part.

    Length prefixes keep the digest injective over the part list —
    ``("ab", "c")`` and ``("a", "bc")`` hash differently.
    """
    digest = hashlib.sha256()
    for part in parts:
        data = part.encode("utf-8")
        digest.update(str(len(data)).encode("ascii"))
        digest.update(b":")
        digest.update(data)
    return digest.hexdigest()


def fingerprint_catalog(catalog: Catalog) -> str:
    """Content fingerprint of a relational catalog."""
    return fingerprint_text("catalog", catalog_to_xml(catalog))


def fingerprint_view(view: SchemaTreeQuery) -> str:
    """Content fingerprint of a schema-tree view (plain or composed).

    Memoized per view object (see :func:`clear_fingerprint_memo`).
    """
    return _memoized(view, lambda: fingerprint_text("view", view_to_xml(view)))


def fingerprint_stylesheet(stylesheet: Optional[Stylesheet]) -> str:
    """Content fingerprint of a parsed stylesheet (``None`` -> identity).

    Memoized per stylesheet object (see :func:`clear_fingerprint_memo`).
    """
    if stylesheet is None:
        return fingerprint_text("stylesheet", "-")
    return _stylesheet_prints(stylesheet)[0]


def _stylesheet_prints(stylesheet: Stylesheet) -> list:
    """``[content fingerprint, shape fingerprint, literals, shape]``,
    memoized: one ``repr`` of the shape makes both fingerprints. The shape
    (≈ 3 KB) is held only until :func:`skeleton_key` takes it."""

    def compute():
        shape, literals = stylesheet_shape(stylesheet)
        text = repr(shape)
        content = fingerprint_text("stylesheet", text, repr(literals))
        return [content, fingerprint_text("stylesheet", text), literals, shape]

    return _memoized(stylesheet, compute)


def node_read_sets(view: SchemaTreeQuery) -> dict[int, tuple[str, ...]]:
    """The base tables each schema node's tag query reads, per node id.

    Computed with :func:`repro.sql.analysis.referenced_tables`, which
    descends into derived tables, EXISTS conditions, scalar subqueries,
    and IN subqueries — so each node's read set is exhaustive over the
    SQL subset. Nodes without a tag query (literal output elements) have
    no entry: they read nothing and can never go stale. The map is what
    incremental maintenance
    (:mod:`repro.maintenance.incremental`) intersects with a
    :class:`~repro.maintenance.tracker.WriteTracker` version vector to
    find exactly the schema nodes a write dirtied.
    """
    from repro.sql.analysis import referenced_tables

    return {
        node.id: tuple(sorted(referenced_tables(node.tag_query)))
        for node in view.nodes(include_root=False)
        if node.tag_query is not None
    }


def view_read_set(view: SchemaTreeQuery) -> tuple[str, ...]:
    """The base tables a view's tag queries read, sorted and deduplicated.

    The union of :func:`node_read_sets` over every query-bearing node,
    so table-based invalidation
    (:meth:`repro.serving.plan_cache.PlanCache.invalidate_tables`, the
    maintenance layer's freshness checks) never misses a dependency.
    """
    tables: set[str] = set()
    for node_tables in node_read_sets(view).values():
        tables.update(node_tables)
    return tuple(sorted(tables))


def plan_key(
    catalog_fingerprint: str,
    view: SchemaTreeQuery,
    stylesheet: Optional[Stylesheet],
) -> str:
    """The cache key for one (catalog, view, stylesheet) request.

    ``catalog_fingerprint`` is passed pre-computed because a server
    fingerprints its catalog once at construction, while views and
    stylesheets vary per request.
    """
    return _key(catalog_fingerprint, view, fingerprint_stylesheet(stylesheet))


def skeleton_key(
    catalog_fingerprint: str,
    view: SchemaTreeQuery,
    stylesheet: Stylesheet,
) -> tuple[str, tuple[str, ...], Optional[Stylesheet]]:
    """``(key, literals, shape)``: :func:`plan_key` with the stylesheet's
    shape for content (the whole view in it: output tags matter), the
    literals that bind it, and the shape — the first caller's; ``None``
    after, as most stylesheets never miss a skeleton, which composes it."""
    prints = _stylesheet_prints(stylesheet)
    shape, prints[3] = prints[3], None
    key = _key(catalog_fingerprint, view, prints[1])
    return key, prints[2], shape


def _key(catalog_fingerprint, view, stylesheet_part) -> str:
    return fingerprint_text(
        catalog_fingerprint,
        fingerprint_view(view),
        stylesheet_part,
        COMPOSE_PASS_FINGERPRINT,
        PRUNE_PASS_FINGERPRINT,
    )
