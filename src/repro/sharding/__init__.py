"""Sharded serving fleet (scatter / spine-merge / gather).

The paper's composed plans evaluate one decorrelated query per schema
node, all scoped by the top-level binding variable — so the workload
partitions cleanly by the top-level key column. This package deals the
database into key-range shards (:mod:`repro.sharding.partition`), runs
one :class:`~repro.serving.server.ViewServer` per shard on the shard's
source, serves each request at every shard on the router's one worker,
and splices the per-shard response texts inside the view's literal frame
(:mod:`repro.sharding.merge`) into a response byte-identical to a
single-box run (:mod:`repro.sharding.router`).
``serve-http --shards N`` and the ``fleet-mix`` workload
of ``benchmarks/perf`` drive it.
"""

from repro.sharding.merge import (
    MergePlan,
    ShardMergeUnsupported,
    merge_documents,
    merge_texts,
    plan_merge,
)
from repro.sharding.partition import (
    KeyRange,
    KeyRangePartitioner,
    PartitionScheme,
    ShardingError,
    derive_partition_column,
    derive_partition_node,
    partition_database,
    partition_keys,
)
from repro.sharding.router import RouterTrace, ShardRouter

__all__ = [
    "KeyRange",
    "KeyRangePartitioner",
    "MergePlan",
    "PartitionScheme",
    "RouterTrace",
    "ShardMergeUnsupported",
    "ShardRouter",
    "ShardingError",
    "derive_partition_column",
    "derive_partition_node",
    "merge_documents",
    "merge_texts",
    "partition_database",
    "partition_keys",
    "plan_merge",
]
