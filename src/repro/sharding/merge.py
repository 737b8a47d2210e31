"""Merge per-shard documents under the schema-tree spine.

Every shard evaluates the full (possibly composed) view over its own
key range, producing a complete document whose *spine* — the literal
elements from the root down to the partition node's parent — is
identical across shards, and whose partition-node instances are the
shard's slice of the top-level key domain. Merging is therefore pure
structure: walk the spine once, concatenate the partition runs in shard
order (ranges ascend, so document order by shard key is preserved), and
keep every other child from shard 0 (spine siblings are literal, hence
byte-identical everywhere).

The merge is **non-destructive**: shard documents may be (and under
delta maintenance *are*) documents captured inside result
caches, so no shared node is ever re-parented or mutated. The merged
document is a fresh :class:`~repro.xmlcore.nodes.Document` whose spine
chain is shallow-copied; partition instances and off-spine children are
attached *by reference* through direct ``children``-list mutation —
their ``parent`` pointers keep pointing into the shard documents, which
the serializer never reads.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ReproError
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery
from repro.sharding.partition import derive_partition_node
from repro.xmlcore.nodes import Document, Element


class ShardMergeUnsupported(ReproError):
    """The view's shape (or a document's) defeats the spine merge."""


@dataclass
class MergePlan:
    """Everything the merge needs to know about one view's shape.

    ``spine`` is the chain of literal schema nodes from the root element
    down to (and including) the partition node's parent — empty when the
    partition node is itself top-level, as in the plain Figure 1 view.
    """

    partition: SchemaNode
    spine: list[SchemaNode]

    @property
    def spine_tags(self) -> list[str]:
        return [node.tag for node in self.spine]


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
    return MergePlan(partition=partition, spine=spine)


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
    tag = plan.partition.tag
    indices = [
        index
        for index, child in enumerate(children)
        if isinstance(child, Element) and child.tag == tag
    ]
    if not indices:
        parent = plan.partition.parent
        preceding = 0
        if parent is not None:
            for sibling in parent.children:
                if sibling is plan.partition:
                    break
                preceding += 1
        cut = 0
        seen_elements = 0
        for index, child in enumerate(children):
            if seen_elements == preceding:
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
    # parent pointers (into the shard documents) are never retargeted.
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
