"""Serialized-fragment byte cache and the fragment pinning policy.

The second half of fragment-level incremental serving (E17): even a
perfect delta splice re-serializes the *whole* document on every stale
recompute, charging ``serialize_seconds`` proportional to document
size, not to what changed. But the splice is copy-on-spine — subtrees
untouched by a delta are the *same objects* in the new document — so
their serialized bytes are reusable verbatim. A :class:`FragmentCache`
keeps those byte spans per schema-node fragment, anchored to the
element objects of the entry's :class:`~repro.maintenance.incremental.MaterializedState`
and stamped by the entry's table-version vector (the entry stores both
side by side in :mod:`repro.maintenance.result_cache`); on the next
recompute, :func:`repro.xmlcore.serializer.serialize_spliced` emits
cached spans for shared subtrees and walks only the dirty fragments.

Identity keying is what makes the content fingerprint implicit: an
element object is never mutated after capture (the delta evaluator's
copy-on-spine contract), so ``id(element)`` plus a strong anchor to the
element *is* a content key. A full recompute produces all-new objects,
misses every span, and naturally rebuilds the table.

Which fragments are worth pinning is a policy question —
"XML Reconstruction View Selection" frames exactly this as budgeted
materialization. :class:`FragmentPolicy` decides per serialization,
driven by live read rates (how often the entry is served) and write
rates (tracker version lag on each node's read set) under a byte
budget: a fragment that is read often and written rarely is pinned
first; write-churned fragments stay virtual since their spans would be
invalidated before they are ever copied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from repro.errors import ReproError
from repro.xmlcore.serializer import SpliceOutcome, serialize_spliced

#: Accepted pinning policies: ``all`` pins every query-bearing node's
#: fragments (budget still caps total bytes when given); ``auto`` ranks
#: nodes by read rate over write rate and pins greedily under budget;
#: ``none`` disables byte caching (serving still works, every request
#: re-walks the tree).
FRAGMENT_POLICIES = ("all", "auto", "none")

#: Default byte budget for ``auto`` when none is configured (enough for
#: the benchmark documents; a knob in docs/API.md for real ones).
DEFAULT_FRAGMENT_BUDGET = 4 * 1024 * 1024


@dataclass
class FragmentStat:
    """Per-schema-node signals the pinning policy ranks.

    ``size`` is the node's total cached span bytes from the previous
    serialization (0 when unknown — new nodes start maximally
    attractive, the next round has real numbers); ``reads`` counts
    serves of the owning entry since it was stored; ``writes`` counts
    write events on the node's read-set tables over the same window.
    """

    node_id: int
    size: int = 0
    reads: float = 0.0
    writes: float = 0.0
    #: Fraction of the node's live spans the previous serialization
    #: reused rather than re-walked (``None`` before the first measured
    #: pass) — the direct signal of whether writes actually kill this
    #: node's spans. A row-level write invalidates one span and leaves
    #: the siblings splicable (survival near 1); a node-level delta
    #: replaces every instance (survival 0).
    survival: Optional[float] = None
    #: Nearest query-bearing ancestor node (``None`` at the top level).
    #: A parent's span covers every descendant span, so the ``auto``
    #: policy prunes descendants of a fragment that is expected to
    #: survive — pinning both would double the bookkeeping for bytes
    #: the parent already serves.
    parent_id: Optional[int] = None


class FragmentPolicy:
    """Decides which schema nodes stay byte-materialized.

    Parsed from ``"all"``, ``"none"``, ``"auto"`` or ``"auto:<bytes>"``
    (the CLI's ``--fragment-policy`` / ``--fragment-budget`` knobs map
    here). ``select`` is a pure function of the supplied stats so it
    can be unit-tested and re-run per serialization.
    """

    def __init__(self, mode: str = "all", budget: Optional[int] = None):
        if mode not in FRAGMENT_POLICIES:
            raise ReproError(
                f"unknown fragment policy {mode!r}; expected one of "
                f"{', '.join(FRAGMENT_POLICIES)}"
            )
        self.mode = mode
        if budget is None and mode == "auto":
            budget = DEFAULT_FRAGMENT_BUDGET
        self.budget = budget

    @classmethod
    def parse(cls, text: str) -> "FragmentPolicy":
        """Parse ``all`` / ``none`` / ``auto`` / ``auto:<bytes>``."""
        if ":" in text:
            mode, _, raw = text.partition(":")
            try:
                budget = int(raw)
            except ValueError as exc:
                raise ReproError(
                    f"fragment policy budget must be an integer: {text!r}"
                ) from exc
            return cls(mode.strip(), budget)
        return cls(text.strip())

    def describe(self) -> str:
        """Canonical text form (inverse of :meth:`parse`)."""
        if self.mode == "auto" and self.budget is not None:
            return f"auto:{self.budget}"
        return self.mode

    def select(self, stats: Iterable[FragmentStat]) -> set[int]:
        """The node ids whose fragments should be pinned.

        ``auto`` ranks by value density ``reads / (1 + writes)`` — the
        expected number of times a span is copied before a write
        invalidates it — and pins greedily until the byte budget is
        spent (unsized nodes cost nothing yet; they are admitted and
        measured on the next round). Density prefers the *measured*
        span survival fraction when one exists (``reads * survival``)
        and falls back to the write-count proxy ``reads / (1 +
        writes)`` before the first measurement.

        ``auto`` walks the fragment hierarchy top-down (via
        ``parent_id``) and pins the *topmost* fragment per path that is
        expected to survive — its span covers every descendant, so also
        pinning the descendants would double the per-serve bookkeeping
        for bytes the parent already serves. Each node lands in one of
        three cases: *covering* (density at least half a copy per
        serve) is pinned and its subtree left alone; *unmeasured*
        (no survival number yet) is pinned optimistically so the next
        pass can measure it, with its children explored in parallel;
        *measured churn* (spans die faster than they are copied) is
        dropped outright and only its children considered — the span
        would cost bookkeeping every serve and almost never splice.
        The pinned set therefore converges, one level per pass, onto
        the fringe of stability, and stays there: survival history is
        inherited across passes (see
        :meth:`FragmentCache.serialize_state`), so a node measured as
        churn does not bounce back to optimistic. ``all`` pins
        everything, largest first when a budget caps it.
        """
        if self.mode == "none":
            return set()
        ranked = list(stats)
        if self.mode == "all":
            ranked.sort(key=lambda s: (-s.size, s.node_id))
            chosen = ranked
        else:
            def density(stat: FragmentStat) -> float:
                if stat.survival is not None:
                    return stat.reads * stat.survival
                return stat.reads / (1.0 + stat.writes)

            by_id = {s.node_id: s for s in ranked}
            children: dict[int, list[FragmentStat]] = {}
            roots: list[FragmentStat] = []
            for s in ranked:
                if s.parent_id is not None and s.parent_id in by_id:
                    children.setdefault(s.parent_id, []).append(s)
                else:
                    roots.append(s)
            chosen = []
            stack = list(roots)
            while stack:
                s = stack.pop()
                if density(s) >= 0.5:
                    # Covering: the span outlives enough serves to pay
                    # for itself and shadows every descendant span.
                    chosen.append(s)
                    continue
                if s.survival is None:
                    # Unmeasured: pin once to learn the real survival,
                    # exploring the children in parallel.
                    chosen.append(s)
                    stack.extend(children.get(s.node_id, ()))
                    continue
                # Measured churn: the span dies faster than it is
                # copied; stable fragments may still live beneath it.
                stack.extend(children.get(s.node_id, ()))
            chosen.sort(key=lambda s: (-density(s), -s.size, s.node_id))
        if self.budget is None:
            return {s.node_id for s in chosen}
        selected: set[int] = set()
        spent = 0
        for stat in chosen:
            if stat.size and spent + stat.size > self.budget:
                continue
            spent += stat.size
            selected.add(stat.node_id)
        return selected


class FragmentCache:
    """Byte spans for one cached document, anchored by element identity.

    One instance belongs to one result-cache entry (stored alongside
    its ``MaterializedState`` and version stamp). ``serialize_state``
    emits the entry's document by splicing this cache's spans, records
    fresh spans for the pinned fragments it had to walk, and returns
    the *successor* cache to store on the new entry — spans whose
    elements did not survive the splice are dropped with their anchors,
    so dead subtrees are not kept alive and ids cannot be recycled into
    false hits.
    """

    def __init__(self, pinned: Iterable[int] = ()):
        self.pinned: set[int] = set(pinned)
        #: id(element) -> serialized span, handed straight to
        #: :func:`serialize_spliced` without copying.
        self._spans: dict[int, str] = {}
        #: id(element) -> element. The anchor keeps the element alive
        #: for as long as its span is servable, so an id in ``_spans``
        #: cannot be recycled into a false hit.
        self._anchors: dict[int, Any] = {}
        #: node id -> total span bytes, rebuilt on each serialization;
        #: feeds :class:`FragmentStat.size`.
        self.bytes_by_node: dict[int, int] = {}
        #: Per-node live-span and reused-span counts from the pass that
        #: built this cache; their ratio is :meth:`survival`.
        self._live_by_node: dict[int, int] = {}
        self._survived_by_node: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._spans)

    def survival(self, node_id: int) -> Optional[float]:
        """Fraction of the node's live spans the pass that built this
        cache reused (spliced or carried forward) rather than re-walked;
        ``None`` before the first measured pass. Feeds
        :class:`FragmentStat.survival`."""
        live = self._live_by_node.get(node_id)
        if not live:
            return None
        return self._survived_by_node.get(node_id, 0) / live

    def serialize_state(
        self, state, pinned: Optional[set[int]] = None
    ) -> tuple[str, SpliceOutcome, "FragmentCache"]:
        """Serialize ``state.document`` splicing this cache's spans.

        ``pinned`` (default: this cache's pinned set) names the schema
        nodes whose fragments the successor cache should hold. Returns
        ``(xml, outcome, successor)``; the xml is byte-identical to
        ``serialize(state.document)``.
        """
        pinned = self.pinned if pinned is None else set(pinned)
        #: id(element) -> (element, owning node id) for every pinned
        #: live element — one dict doubles as the serializer's
        #: record-membership set and the successor's anchor source.
        live: dict[int, tuple[Any, int]] = {}
        for node_id in pinned:
            for element, _env in state.instances.get(node_id, []):
                live[id(element)] = (element, node_id)
        # Every cached span is offered, even for newly-unpinned nodes:
        # anchors guarantee no id is recycled, dead elements simply
        # never hit, and an unpinned node's span serving one last round
        # is byte-identical anyway — the successor just drops it.
        outcome = SpliceOutcome()
        record: dict[int, str] = {}
        xml = serialize_spliced(
            state.document, self._spans, live, record, outcome
        )
        # The successor keeps a span for every *live* pinned element:
        # ones this pass walked or spliced (in ``record``) and ones it
        # never visited because an enclosing span hit — their elements
        # are still in the new state, so identity still implies
        # identical bytes. Entries whose element left the state are
        # dropped with their anchors, so dead subtrees are not kept
        # alive and ids cannot be recycled into false hits.
        successor = FragmentCache(pinned)
        spans = successor._spans
        anchors = successor._anchors
        bytes_by_node = successor.bytes_by_node
        live_by_node = successor._live_by_node
        survived_by_node = successor._survived_by_node
        prior_spans = self._spans
        # Survival is only measurable for nodes the *prior* cache held
        # spans for — a node pinned for the first time walks everything
        # fresh and would read as total churn when nothing ever had a
        # chance to survive.
        measured = {nid for nid, total in self.bytes_by_node.items() if total}
        for key, (element, node_id) in live.items():
            span = record.get(key)
            # A span counts as reused when it was carried forward unseen
            # or spliced verbatim (the hit path re-records the *same*
            # string object); a freshly-walked span means the old one
            # died (or the element is new). The per-node ratio is the
            # policy's survival signal.
            reused = span is None
            if reused:
                span = prior_spans.get(key)
                if span is None:
                    continue
            elif span is prior_spans.get(key):
                reused = True
            spans[key] = span
            anchors[key] = element
            bytes_by_node[node_id] = (
                bytes_by_node.get(node_id, 0) + len(span)
            )
            if node_id in measured:
                live_by_node[node_id] = live_by_node.get(node_id, 0) + 1
                if reused:
                    survived_by_node[node_id] = (
                        survived_by_node.get(node_id, 0) + 1
                    )
        # Nodes not measured this pass (unpinned, or pinned without
        # prior spans) inherit their last measurement, so the policy's
        # churn verdicts persist instead of resetting to optimistic the
        # moment a node is dropped — that reset is what would make the
        # pinned set oscillate.
        for node_id, total in self._live_by_node.items():
            if node_id not in live_by_node:
                live_by_node[node_id] = total
                survived = self._survived_by_node.get(node_id, 0)
                if survived:
                    survived_by_node[node_id] = survived
        return xml, outcome, successor
