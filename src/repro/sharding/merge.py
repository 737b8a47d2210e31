"""Merge per-shard responses under the schema-tree spine.

Every shard evaluates the full (possibly composed) view over its own
key range. Everything outside the partition subtree is query-free
(:func:`~repro.sharding.partition.derive_partition_node` rejects any
other view; the paper's OTT step is what makes it so: whatever sits above
the first query-bearing node is a literal result element of the
stylesheet), so the text a shard writes before and after its run of
partition-node instances is a constant of the view — its *literal
frame*. :func:`plan_merge` derives the frame once per view, with the
evaluator's own element builder and the one serializer;
:func:`merge_texts` is then string slicing: the frame around the shards'
runs in shard order (ranges ascend, so document order by shard key is
preserved). No tree is built, walked or serialized a second time.

:func:`merge_documents` is the same merge over trees — walk the spine,
concatenate the partition runs, keep every other child from shard 0. It
is the reference ``tests/sharding`` hold the splice against (and what the
spine's ``sharding.merge_direct_ms`` probe times); nothing in ``src/``
calls it. It is **non-destructive**: the merged document is a fresh
:class:`~repro.xmlcore.nodes.Document` whose spine chain is
shallow-copied; partition instances and off-spine children are attached
*by reference* through direct ``children``-list mutation, so their
``parent`` links still name the shard documents' nodes. The links are
weak: once the shard documents are freed they read ``None``, and the
merged document, which holds the shared nodes through ``children``,
serializes the same (the serializer never reads ``parent``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.schema_tree.evaluator import MaterializeStats, build_element
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sharding.partition import derive_partition_node
from repro.xmlcore.nodes import Comment, Document, Element
from repro.xmlcore.serializer import serialize


class ShardMergeUnsupported(ReproError):
    """The view's shape (or a shard's response) defeats the spine merge."""


@dataclass(frozen=True)
class MergePlan:
    """Everything the merge needs to know about one view's shape.

    Plain data — no schema node, so a cached plan keeps no view alive.
    ``prefix`` / ``suffix`` are the literal frame: what every shard writes
    before and after its partition run. ``empty`` is the whole response of
    a shard whose slice is empty — ``prefix + suffix`` unless the partition
    parent has no other child, which then serializes as ``<p/>``.
    ``spine_tags`` (root element down to the partition node's parent;
    empty when the partition node is top-level, as in the plain Figure 1
    view), ``partition_tag`` and ``preceding`` (the schema siblings before
    the partition node) locate the same run in a tree.
    """

    spine_tags: tuple[str, ...]
    partition_tag: str
    preceding: int
    prefix: str
    suffix: str
    empty: str


def plan_merge(view: SchemaTreeQuery) -> MergePlan:
    """Derive and validate the merge plan for a (composed) view.

    Requirements, each checked here so a violation fails loudly at plan
    time instead of corrupting merged output:

    * every query-bearing node lives inside the partition subtree
      (checked by :func:`derive_partition_node`);
    * each spine node's tag is unique among its schema siblings, so the
      per-shard spine element can be located positionally by tag;
    * the partition node's tag is unique among *its* siblings, so the
      partition run in the parent's child list is unambiguous.
    """
    partition = derive_partition_node(view)
    spine: list[SchemaNode] = [
        node for node in partition.path_from_root()
        if not node.is_root and node is not partition
    ]
    for node in spine + [partition]:
        parent = node.parent
        siblings = parent.children if parent is not None else []
        same_tag = [s for s in siblings if s.tag == node.tag]
        if len(same_tag) != 1:
            raise ShardMergeUnsupported(
                f"tag <{node.tag}> is ambiguous among the children of "
                f"node {parent.id if parent else '?'}; the spine merge "
                "cannot locate it positionally"
            )
    # The frame: every node outside the partition subtree, built the way
    # a shard builds it (no row, nothing bound), with a comment standing
    # where the run goes. A frame holds elements only and the serializer
    # escapes ``<`` in attribute values, so the comment's text occurs once.
    document, slot = Document(), Comment("partition run")
    stats = MaterializeStats()
    for child in view.root.children:
        _build_literal(child, document, partition, slot, stats)
    prefix, _, suffix = serialize(document).partition(serialize(slot))
    slot.parent.remove(slot)
    return MergePlan(
        spine_tags=tuple(node.tag for node in spine),
        partition_tag=partition.tag,
        preceding=next(
            index
            for index, sibling in enumerate(partition.parent.children)
            if sibling is partition
        ),
        prefix=prefix,
        suffix=suffix,
        empty=serialize(document),
    )


def _build_literal(node, parent, partition, slot, stats) -> None:
    """Build ``node``'s literal subtree under ``parent``; ``slot`` stands
    in for the partition node, whose subtree is the shards' to build."""
    if node is partition:
        parent.append(slot)
        return
    element = parent.append(build_element(node, {}, None, stats))
    for child in node.children:
        _build_literal(child, element, partition, slot, stats)


def merge_texts(plan: MergePlan, texts: list[str]) -> str:
    """Splice per-shard response texts into one, shard order preserved.

    ``prefix`` + every shard's run + ``suffix``; ``empty`` when no shard
    has a run. A single response passes through. A response that is
    neither ``empty`` nor inside the frame raises
    :class:`ShardMergeUnsupported` — never wrong bytes.
    """
    if not texts:
        raise ShardMergeUnsupported("no shard responses to merge")
    if len(texts) == 1:
        return texts[0]
    prefix, suffix = plan.prefix, plan.suffix
    runs = []
    for shard, text in enumerate(texts):
        if text == plan.empty:
            continue
        # A prefix ends in ``>`` and a suffix starts with ``<``: a body
        # that has both has them apart.
        if not (text.startswith(prefix) and text.endswith(suffix)):
            raise ShardMergeUnsupported(
                f"shard {shard}'s response ({len(text)} characters) is "
                "outside the view's literal frame"
            )
        runs.append(text[len(prefix):len(text) - len(suffix)])
    if not any(runs):
        return plan.empty
    return "".join([prefix, *runs, suffix])


def _sole_child(container, tag: str) -> Element:
    """The unique element child with ``tag`` (spine walk step)."""
    matches = [
        child
        for child in container.children
        if isinstance(child, Element) and child.tag == tag
    ]
    if len(matches) != 1:
        raise ShardMergeUnsupported(
            f"expected exactly one <{tag}> child on the spine, "
            f"found {len(matches)}"
        )
    return matches[0]


def _split_partition_run(plan: MergePlan, container) -> tuple[list, list, list]:
    """Split a partition parent's children into (prefix, run, suffix).

    The evaluators append children grouped by schema child node, in
    schema order, so a shard's partition instances form one contiguous
    run. A shard serving an empty key slice has no run; its insertion
    point is after the elements of the schema siblings that precede the
    partition node (each literal sibling emits exactly one element per
    parent instance).
    """
    children = container.children
    tag = plan.partition_tag
    indices = [
        index
        for index, child in enumerate(children)
        if isinstance(child, Element) and child.tag == tag
    ]
    if not indices:
        cut = 0
        seen_elements = 0
        for index, child in enumerate(children):
            if seen_elements == plan.preceding:
                cut = index
                break
            if isinstance(child, Element):
                seen_elements += 1
            cut = index + 1
        return list(children[:cut]), [], list(children[cut:])
    first, last = indices[0], indices[-1]
    if indices != list(range(first, last + 1)):
        raise ShardMergeUnsupported(
            f"partition run of <{tag}> is not contiguous"
        )
    return (
        list(children[:first]),
        list(children[first:last + 1]),
        list(children[last + 1:]),
    )


def merge_documents(plan: MergePlan, documents: list[Document]) -> Document:
    """Merge per-shard documents into one, shard order preserved.

    Shard 0 supplies the spine and every off-spine child (all literal,
    identical across shards); the partition runs concatenate in shard
    order. No input document is mutated — see the module docstring for
    the sharing discipline.
    """
    if not documents:
        raise ShardMergeUnsupported("no shard documents to merge")
    if len(documents) == 1:
        return documents[0]
    # Locate each shard's partition parent by walking its spine.
    parents = []
    for document in documents:
        container = document
        for tag in plan.spine_tags:
            container = _sole_child(container, tag)
        parents.append(container)
    prefix, _, suffix = _split_partition_run(plan, parents[0])
    merged_children = list(prefix)
    for parent in parents:
        merged_children.extend(_split_partition_run(plan, parent)[1])
    merged_children.extend(suffix)
    # Rebuild shard 0's spine chain bottom-up with fresh copies; shared
    # nodes are attached through direct children-list mutation so their
    # parent links are never retargeted (they name the shard documents'
    # nodes while those live, and read None once they are freed).
    chain = [documents[0]]
    container = documents[0]
    for tag in plan.spine_tags:
        container = _sole_child(container, tag)
        chain.append(container)
    replacement = None
    for depth in range(len(chain) - 1, -1, -1):
        original = chain[depth]
        copy = Document() if depth == 0 else original.shallow_copy()
        if depth == len(chain) - 1:
            copy.children.extend(merged_children)
        else:
            spine_child = chain[depth + 1]
            for child in original.children:
                if child is spine_child:
                    copy.children.append(replacement)
                    replacement.parent = copy
                else:
                    copy.children.append(child)
        replacement = copy
    return replacement
