"""Key-range partitioning of workload databases for the serving fleet.

The paper's composed plans evaluate one decorrelated query per schema
node, every one scoped by the top-level binding variable — so the
workload partitions cleanly by the *top-level key column*: the primary
key of the single base table the schema tree's first query-bearing node
ranges over (``metroarea.metroid`` for Figure 1). This module derives
that column from the view (:func:`derive_partition_column`), splits its
key domain into contiguous ranges (:class:`KeyRangePartitioner`), and
carves one :class:`Database` per shard out of the source, in the engine
(each shard loads its own rows by ``INSERT … SELECT``; nothing copies
the whole source), according to a workload-declared
:class:`PartitionScheme`.

The scheme is declarative: for every base table it names a *key query*
returning ``(primary_key, partition_key)`` pairs — the join path from
the table's rows to the top-level key they belong to — or ``None`` to
replicate the table to every shard (small dimension tables such as
``hotelchain``). Partitioning is therefore transitive and complete: a
row lands on exactly the shard that owns its top-level key, so every
per-node tag query of the view evaluates shard-locally.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.errors import ReproError
from repro.relational.engine import Database
from repro.relational.schema import Catalog
from repro.schema_tree.model import SchemaNode, SchemaTreeQuery


class ShardingError(ReproError):
    """A view, scheme, or key domain that cannot be partitioned."""


def derive_partition_node(view: SchemaTreeQuery) -> SchemaNode:
    """The schema node whose key column partitions the workload.

    The first query-bearing node in pre-order — the node whose tuples
    the rest of the tree is correlated under. Every other query-bearing
    node must live in its subtree, or per-shard evaluation would not be
    equivalent to a single-box run (some query would range over data the
    shard does not own).
    """
    ordered = view.nodes(include_root=False)
    partition = next((node for node in ordered if node.has_query), None)
    if partition is None:
        raise ShardingError("view has no query-bearing node to partition by")
    subtree = set(id(node) for node in partition.walk())
    for node in ordered:
        if node.has_query and id(node) not in subtree:
            raise ShardingError(
                f"query-bearing node {node.id} (<{node.tag}>) is outside "
                f"the partition subtree rooted at node {partition.id} "
                f"(<{partition.tag}>)"
            )
    return partition


def derive_partition_column(
    view: SchemaTreeQuery, catalog: Catalog
) -> tuple[str, str]:
    """The ``(table, column)`` the schema tree's top level partitions by.

    The partition node's tag query must range over exactly one base
    table in its FROM clause, and that table must declare a primary key
    — the shard key. For Figure 1 this derives ``("metroarea",
    "metroid")``. Subqueries (composed predicates) may reference other
    tables freely: the partition scheme routes every table by the same
    top-level key, so those reads stay shard-local too.
    """
    from repro.sql.ast import TableRef

    partition = derive_partition_node(view)
    froms = [
        item.name
        for item in partition.tag_query.from_items
        if isinstance(item, TableRef)
    ]
    if len(froms) != 1 or len(partition.tag_query.from_items) != 1:
        raise ShardingError(
            f"partition node {partition.id} (<{partition.tag}>) ranges "
            f"over {len(partition.tag_query.from_items)} FROM items; "
            "key-range partitioning needs exactly one base table"
        )
    declared = catalog.table(froms[0])
    if declared.primary_key is None:
        raise ShardingError(
            f"partition table {declared.name!r} declares no primary key"
        )
    return declared.name, declared.primary_key


@dataclass(frozen=True)
class KeyRange:
    """One shard's contiguous slice of the key domain (inclusive)."""

    low: int
    high: int

    def __contains__(self, key) -> bool:
        return self.low <= key <= self.high


class KeyRangePartitioner:
    """Maps a partition-key value to a shard by contiguous key range.

    Built from the *sorted distinct* key values actually present
    (:meth:`from_keys`), split into ``shards`` near-equal runs. Ranges
    are ascending by construction, so concatenating per-shard results in
    shard order preserves global document order by shard key — the
    invariant the spine merge relies on.
    """

    def __init__(self, ranges: Sequence[KeyRange]):
        if not ranges:
            raise ShardingError("partitioner needs at least one key range")
        for left, right in zip(ranges, ranges[1:]):
            if left.high >= right.low:
                raise ShardingError(
                    f"key ranges overlap or are unordered: {left} vs {right}"
                )
        self.ranges = list(ranges)
        self._uppers = [r.high for r in self.ranges]

    @classmethod
    def from_keys(
        cls, keys: Sequence, shards: int
    ) -> "KeyRangePartitioner":
        """Split the distinct ``keys`` into ``shards`` contiguous ranges."""
        distinct = sorted(set(keys))
        if shards < 1:
            raise ShardingError(f"shard count must be >= 1, got {shards}")
        if not distinct:
            raise ShardingError("no partition keys present in the source")
        if shards > len(distinct):
            raise ShardingError(
                f"cannot split {len(distinct)} distinct keys into "
                f"{shards} shards"
            )
        base, extra = divmod(len(distinct), shards)
        ranges: list[KeyRange] = []
        start = 0
        for index in range(shards):
            width = base + (1 if index < extra else 0)
            chunk = distinct[start:start + width]
            ranges.append(KeyRange(chunk[0], chunk[-1]))
            start += width
        return cls(ranges)

    @property
    def shards(self) -> int:
        return len(self.ranges)

    def shard_of(self, key) -> int:
        """The shard index owning ``key``.

        Keys that fall between ranges (inserted after partitioning)
        belong to the nearest range whose upper bound is not below them
        — the same shard a re-partition of the grown domain would pick.
        """
        index = bisect.bisect_left(self._uppers, key)
        return min(index, len(self.ranges) - 1)

    def describe(self) -> str:
        """The ranges as a compact ``[low,high] ...`` display string."""
        return " ".join(
            f"[{r.low},{r.high}]" for r in self.ranges
        )


@dataclass(frozen=True)
class PartitionScheme:
    """How a workload's tables map onto the top-level key domain.

    ``key_queries`` maps every catalog table to SQL returning
    ``(primary_key, partition_key)`` pairs — the join path from the
    table's rows to the shard key they belong to — or ``None`` to
    replicate the table to all shards. A key query reads the whole
    source — the foreign-key path toward the partition table.
    :func:`partition_database` validates the
    scheme covers the catalog exactly.
    """

    table: str
    column: str
    key_queries: Mapping[str, Optional[str]]

    def validate(self, catalog: Catalog) -> None:
        """Reject schemes naming tables the catalog does not declare,
        or routing the partition table as replicated."""
        declared = {t.name for t in catalog}
        routed = set(self.key_queries)
        if routed != declared:
            missing = sorted(declared - routed)
            extra = sorted(routed - declared)
            raise ShardingError(
                f"partition scheme does not match the catalog: "
                f"missing {missing}, unknown {extra}"
            )
        if self.key_queries.get(self.table) is None:
            raise ShardingError(
                f"the partition table {self.table!r} itself must have a "
                "key query (it cannot be replicated)"
            )


def partition_keys(source: Database, scheme: PartitionScheme) -> list:
    """Sorted distinct partition-key values present in the source."""
    rows = source.read_sql(
        f"SELECT DISTINCT {scheme.column} AS k FROM {scheme.table} "
        f"ORDER BY {scheme.column}",
        {},
    )
    return [row["k"] for row in rows]


def _owned(index: int, partitioner: KeyRangePartitioner) -> tuple[str, dict]:
    """The condition on ``part`` that holds exactly for the keys
    :meth:`KeyRangePartitioner.shard_of` maps to shard ``index``, and
    its bound parameters.

    Shard ``i`` owns the keys above the previous range's upper bound up
    to its own: the first shard is open below, the last open above (so a
    key between two ranges goes to the upper one). A NULL key satisfies
    no comparison, and the ``IS NOT NULL`` of the one-shard case keeps
    that so: no shard's view queries serve such a row.
    """
    uppers = [key_range.high for key_range in partitioner.ranges]
    conditions, bounds = [], {}
    if index > 0:
        conditions.append("part > :low")
        bounds["low"] = uppers[index - 1]
    if index < len(uppers) - 1:
        conditions.append("part <= :high")
        bounds["high"] = uppers[index]
    return " AND ".join(conditions) or "part IS NOT NULL", bounds


def partition_database(
    source: Database,
    scheme: PartitionScheme,
    partitioner: KeyRangePartitioner,
    cross_thread: bool = True,
) -> list[Database]:
    """Carve one database per shard out of the source, in the engine.

    Each shard starts as the catalog's empty tables. Per routed table,
    one ``INSERT … SELECT`` on the source's connection (the shard
    attached to it, :meth:`Database.copy_rows`) loads the rows that the
    table's key query maps into the shard's key range — not rows of
    other shards, nor rows whose join path dead-ends (orphans) or whose
    key is NULL, which no shard's view queries serve. The key queries
    read the whole source, so a key query may follow foreign keys to any
    table. The shard's indexes are built once, after the load, and
    ``ANALYZE`` counts what it holds. No row passes through Python, and
    the source is only read.

    A shard's rows keep their source rowids and order, so within every
    shard the partition table stays ascending by key — combined with the
    partitioner's ascending ranges, shard-order concatenation preserves
    global document order. Replicated tables (key query ``None``) are
    copied whole. The returned databases are writable and opened
    ``cross_thread`` (default) so a writer thread and the serving pools'
    threads can share them, exactly like the single-box update-aware
    setup. If carving a shard fails, every shard made so far
    is closed before the error propagates.
    """
    scheme.validate(source.catalog)
    for declared in source.catalog:
        if (
            scheme.key_queries[declared.name] is not None
            and declared.primary_key is None
        ):
            raise ShardingError(
                f"table {declared.name!r} has a key query but no primary "
                "key to route by"
            )
    shards: list[Database] = []
    try:
        for index in range(partitioner.shards):
            shard = Database(
                source.catalog, create=False, cross_thread=cross_thread
            )
            shards.append(shard)
            shard.create_tables()
            owned, bounds = _owned(index, partitioner)
            source.copy_rows(shard, [
                (declared.name, None, {})
                if scheme.key_queries[declared.name] is None
                else (
                    declared.name,
                    f"{declared.primary_key} IN (SELECT pk FROM "
                    f"({scheme.key_queries[declared.name]}) WHERE {owned})",
                    bounds,
                )
                for declared in source.catalog
            ])
            shard.create_indexes()
            shard.analyze()
    except BaseException:
        for shard in shards:
            shard.close()
        raise
    return shards
