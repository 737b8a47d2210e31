"""The spine merge: order, non-mutation, empty runs, rejections.

Two merges over one plan: the text splice the router runs
(``merge_texts``) and the tree merge it is held against
(``merge_documents``). Every case asserts splice == tree == single box.
"""

from __future__ import annotations

import pytest

from repro.core.compose import compose
from repro.schema_tree.builder import ViewBuilder
from repro.schema_tree.evaluator import materialize
from repro.sharding import (
    KeyRange,
    KeyRangePartitioner,
    ShardMergeUnsupported,
    merge_documents,
    merge_texts,
    partition_database,
    partition_keys,
    plan_merge,
)
from repro.workloads.hotel import (
    HotelDataSpec,
    build_hotel_database,
    hotel_partition_scheme,
)
from repro.workloads.paper import figure1_view, figure4_stylesheet
from repro.xmlcore.nodes import Document, Element
from repro.xmlcore.serializer import serialize

SEED = 2003


def _sharded_documents(db, view, partitioner):
    shards = partition_database(db, hotel_partition_scheme(), partitioner)
    try:
        return [materialize(view, shard) for shard in shards]
    finally:
        for shard in shards:
            shard.close()


def _merged(db, view, partitioner):
    """``(plan, merged text)``, the splice checked against the tree merge
    and the single box."""
    plan = plan_merge(view)
    documents = _sharded_documents(db, view, partitioner)
    merged = merge_texts(plan, [serialize(doc) for doc in documents])
    assert merged == serialize(merge_documents(plan, documents))
    assert merged == serialize(materialize(view, db))
    return plan, merged


def _framed_view(catalog, before=(), after=(), attributes=None):
    """``<page><body>`` literal siblings, the metro run, more siblings."""
    builder = ViewBuilder(catalog)
    page = builder.node("page")
    page.node.literal_attributes.update(attributes or {})
    body = page.child("body")
    for tag in before:
        body.child(tag).child("item")
    metro = body.child(
        "metro", "SELECT metroid, metroname FROM metroarea", bv="m"
    )
    metro.child(
        "hotel",
        "SELECT hotelid, hotelname FROM hotel WHERE metro_id = $m.metroid",
        bv="h",
    )
    for tag in after:
        body.child(tag)
    return builder.build()


def _one_metro_per_shard(metros):
    return KeyRangePartitioner(
        [KeyRange(key, key) for key in range(1, metros + 1)]
    )


def test_figure1_plan_has_empty_spine(paper_view):
    plan = plan_merge(paper_view)
    assert plan.partition_tag == "metro"
    assert plan.spine_tags == ()
    assert (plan.prefix, plan.suffix, plan.empty) == ("", "", "")


def test_merge_preserves_global_document_order(paper_view):
    db = build_hotel_database(
        HotelDataSpec(metros=4, hotels_per_metro=3), seed=SEED
    )
    try:
        plan = plan_merge(paper_view)
        partitioner = KeyRangePartitioner.from_keys(
            partition_keys(db, hotel_partition_scheme()), 2
        )
        documents = _sharded_documents(db, paper_view, partitioner)
        merged = merge_documents(plan, documents)
        assert serialize(merged) == serialize(materialize(paper_view, db))
        assert merge_texts(
            plan, [serialize(doc) for doc in documents]
        ) == serialize(merged)
    finally:
        db.close()


def test_merge_does_not_mutate_shard_documents(paper_view):
    """Shard documents live inside result caches; the merge must share
    their nodes without re-parenting or reordering anything."""
    db = build_hotel_database(
        HotelDataSpec(metros=3, hotels_per_metro=2), seed=SEED
    )
    try:
        plan = plan_merge(paper_view)
        partitioner = KeyRangePartitioner.from_keys(
            partition_keys(db, hotel_partition_scheme()), 3
        )
        documents = _sharded_documents(db, paper_view, partitioner)
        before = [serialize(doc) for doc in documents]
        parents = [
            [child.parent for child in doc.children] for doc in documents
        ]
        merge_documents(plan, documents)
        assert [serialize(doc) for doc in documents] == before
        assert [
            [child.parent for child in doc.children] for doc in documents
        ] == parents
    finally:
        db.close()


def test_the_merged_document_outlives_its_shard_documents(paper_view):
    """The merge shares the shards' partition instances by reference, and
    a node's ``parent`` link is weak: once the shard documents are
    deleted and collected the shared nodes read ``parent is None``, and
    the merged document — which holds them through ``children`` — writes
    the same bytes."""
    import gc

    db = build_hotel_database(
        HotelDataSpec(metros=3, hotels_per_metro=2), seed=SEED
    )
    try:
        plan = plan_merge(paper_view)
        partitioner = KeyRangePartitioner.from_keys(
            partition_keys(db, hotel_partition_scheme()), 3
        )
        documents = _sharded_documents(db, paper_view, partitioner)
        merged = merge_documents(plan, documents)
        text = serialize(merged)
        shared = [
            child for child in merged.children
            if any(child.parent is doc for doc in documents)
        ]
        assert shared
        del documents
        gc.collect()
        assert all(child.parent is None for child in shared)
        assert serialize(merged) == text
    finally:
        db.close()


def test_empty_shard_slice_merges_cleanly(paper_view):
    """A shard owning a key range with no rows contributes an empty
    partition run, not a hole or a crash."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), seed=SEED
    )
    try:
        plan = plan_merge(paper_view)
        # Metros present: 1, 2. The third range is an empty slice.
        partitioner = KeyRangePartitioner(
            [KeyRange(1, 1), KeyRange(2, 2), KeyRange(3, 3)]
        )
        documents = _sharded_documents(db, paper_view, partitioner)
        assert len(documents[2].children) == 0
        merged = merge_documents(plan, documents)
        assert serialize(merged) == serialize(materialize(paper_view, db))
        assert merge_texts(
            plan, [serialize(doc) for doc in documents]
        ) == serialize(merged)
    finally:
        db.close()


def test_empty_slice_between_two_runs(catalog):
    """Metro 2 is gone: shard 1 of 3 answers with the bare frame."""
    db = build_hotel_database(
        HotelDataSpec(metros=3, hotels_per_metro=2), seed=SEED
    )
    try:
        db.run_sql("DELETE FROM metroarea WHERE metroid = 2", {})
        view = _framed_view(catalog, before=["head"], after=["foot"])
        plan, merged = _merged(db, view, _one_metro_per_shard(3))
        assert plan.empty == plan.prefix + plan.suffix
        assert merged.count("<metro ") == 2
    finally:
        db.close()


def test_literal_siblings_on_both_sides_of_the_run(catalog):
    db = build_hotel_database(
        HotelDataSpec(metros=3, hotels_per_metro=2), seed=SEED
    )
    try:
        view = _framed_view(
            catalog, before=["head", "nav"], after=["foot", "legal"]
        )
        plan, merged = _merged(db, view, _one_metro_per_shard(3))
        assert plan.spine_tags == ("page", "body")
        assert plan.preceding == 2
        assert plan.prefix == (
            "<page><body><head><item/></head><nav><item/></nav>"
        )
        assert plan.suffix == "<foot/><legal/></body></page>"
        assert merged.startswith(plan.prefix + "<metro ")
    finally:
        db.close()


def test_partition_parent_with_no_other_child_closes_itself(catalog):
    """No run and nothing else under ``<body>``: a shard writes
    ``<body/>``, which is not ``prefix + suffix``."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), seed=SEED
    )
    try:
        view = _framed_view(catalog)
        # Metros present: 1, 2. The first and last slices are empty.
        partitioner = KeyRangePartitioner(
            [KeyRange(0, 0), KeyRange(1, 2), KeyRange(3, 3)]
        )
        plan, merged = _merged(db, view, partitioner)
        assert plan.empty == "<page><body/></page>"
        assert plan.prefix + plan.suffix == "<page><body></body></page>"
        assert merged.count("<metro ") == 2
    finally:
        db.close()


def test_every_slice_empty_merges_to_the_empty_response(catalog):
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), seed=SEED
    )
    try:
        db.run_sql("DELETE FROM metroarea", {})
        composed = compose(
            figure1_view(catalog), figure4_stylesheet(), catalog
        )
        for view in (composed, _framed_view(catalog, after=["foot"])):
            plan, merged = _merged(db, view, _one_metro_per_shard(2))
            assert merged == plan.empty
        assert plan_merge(composed).empty == "<HTML><HEAD/><BODY/></HTML>"
    finally:
        db.close()


def test_literal_attributes_on_the_spine_are_escaped_once(catalog):
    """The frame comes out of the evaluator's element builder and the one
    serializer, so it escapes what they escape."""
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), seed=SEED
    )
    try:
        view = _framed_view(
            catalog, attributes={"title": 'a<b & "c"\n\t\r', "lang": "en"}
        )
        plan, _ = _merged(db, view, _one_metro_per_shard(2))
        assert plan.prefix == (
            '<page title="a&lt;b &amp; &quot;c&quot;&#10;&#9;&#13;" '
            'lang="en"><body>'
        )
    finally:
        db.close()


def test_plan_holds_no_schema_node(paper_view):
    """A cached plan must not keep its composed view alive."""
    plan = plan_merge(paper_view)
    assert all(
        isinstance(value, (str, int, tuple)) for value in vars(plan).values()
    )


def test_single_document_passes_through(paper_view):
    db = build_hotel_database(
        HotelDataSpec(metros=2, hotels_per_metro=2), seed=SEED
    )
    try:
        plan = plan_merge(paper_view)
        document = materialize(paper_view, db)
        assert merge_documents(plan, [document]) is document
        text = serialize(document)
        assert merge_texts(plan, [text]) is text
    finally:
        db.close()


def test_no_documents_is_rejected(paper_view):
    with pytest.raises(ShardMergeUnsupported, match="no shard documents"):
        merge_documents(plan_merge(paper_view), [])
    with pytest.raises(ShardMergeUnsupported, match="no shard responses"):
        merge_texts(plan_merge(paper_view), [])


@pytest.mark.parametrize(
    "body",
    [
        "<page><body><metro metroid=\"1\"/></body></pa",  # truncated
        "<html><body><metro metroid=\"1\"/></body></page>",  # foreign prefix
        "<page><body></page>",  # shorter than prefix + suffix
        "",
    ],
    ids=["truncated", "foreign-prefix", "short", "nothing"],
)
def test_a_body_outside_the_frame_is_rejected_not_spliced(catalog, body):
    plan = plan_merge(_framed_view(catalog))
    good = '<page><body><metro metroid="2"/></body></page>'
    assert merge_texts(plan, [good, plan.empty]) == good
    for texts in ([body, good], [good, body]):
        with pytest.raises(ShardMergeUnsupported, match="literal frame"):
            merge_texts(plan, texts)


def test_non_contiguous_partition_run_is_rejected(paper_view):
    plan = plan_merge(paper_view)
    broken = Document()
    broken.append(Element("metro", {"metroid": "1"}))
    broken.append(Element("stray"))
    broken.append(Element("metro", {"metroid": "2"}))
    other = Document()
    other.append(Element("metro", {"metroid": "3"}))
    with pytest.raises(ShardMergeUnsupported, match="not contiguous"):
        merge_documents(plan, [broken, other])
