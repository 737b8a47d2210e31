"""End-to-end tests for the ``python -m repro`` CLI."""

import json
import threading
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.xmlcore.parser import parse_document


@pytest.fixture()
def demo_dir(tmp_path):
    out = tmp_path / "demo"
    assert main(["demo", "--out", str(out), "--scale", "1"]) == 0
    return out


def test_demo_writes_all_artifacts(demo_dir):
    for name in ("catalog.xml", "view.xml", "stylesheet.xsl", "hotel.sqlite"):
        assert (demo_dir / name).exists()


def test_compose_command(demo_dir, capsys):
    out_path = demo_dir / "composed.xml"
    code = main(
        [
            "compose",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(demo_dir / "stylesheet.xsl"),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    document = parse_document(out_path.read_text())
    tags = [e.get("tag") for e in document.root_element.iter_elements()
            if e.tag == "node"]
    assert "result_metro" in tags
    assert "confroom" in tags


def test_compose_with_pruning(demo_dir, capsys):
    out_path = demo_dir / "composed.xml"
    code = main(
        [
            "compose",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(demo_dir / "stylesheet.xsl"),
            "--out", str(out_path),
            "--prune",
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "pruned" in captured.err


def test_materialize_composed_equals_run(demo_dir, capsys):
    composed_path = demo_dir / "composed.xml"
    main(
        [
            "compose",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(demo_dir / "stylesheet.xsl"),
            "--out", str(composed_path),
        ]
    )
    capsys.readouterr()
    assert main(
        [
            "materialize",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(composed_path),
            "--db", str(demo_dir / "hotel.sqlite"),
        ]
    ) == 0
    materialized = capsys.readouterr().out
    assert main(
        [
            "run",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(demo_dir / "stylesheet.xsl"),
            "--db", str(demo_dir / "hotel.sqlite"),
        ]
    ) == 0
    run_output = capsys.readouterr().out
    from repro.xmlcore.canonical import canonical_form
    from repro.xmlcore.parser import parse_fragment
    from repro.xmlcore.nodes import Document

    def canon(text):
        doc = Document()
        for node in parse_fragment(text.strip()):
            doc.append(node)
        return canonical_form(doc, ordered=False)

    assert canon(materialized) == canon(run_output)


def test_materialize_bulk_writes_the_text_form(demo_dir, capsys, monkeypatch):
    """``--strategy bulk`` without ``--pretty`` keeps no tree, so it goes
    from rows to text: same bytes and same stderr line as nested-loop,
    on the plain view and on the composed one."""
    import re

    from repro.schema_tree.bulk_evaluator import BulkViewEvaluator

    composed_path = demo_dir / "composed.xml"
    common = ["--catalog", str(demo_dir / "catalog.xml")]
    main(
        ["compose", *common, "--view", str(demo_dir / "view.xml"),
         "--stylesheet", str(demo_dir / "stylesheet.xsl"),
         "--out", str(composed_path)]
    )
    tree_calls = []
    real = BulkViewEvaluator.materialize
    monkeypatch.setattr(
        BulkViewEvaluator, "materialize",
        lambda self, view: tree_calls.append(view) or real(self, view),
    )
    bulk_queries = []
    for view_path in (demo_dir / "view.xml", composed_path):
        seen = {}
        for strategy in ("nested-loop", "bulk"):
            out_path = demo_dir / f"out-{strategy}.xml"
            capsys.readouterr()
            assert main(
                ["materialize", *common, "--view", str(view_path),
                 "--db", str(demo_dir / "hotel.sqlite"),
                 "--strategy", strategy, "--out", str(out_path)]
            ) == 0
            report = capsys.readouterr().err.strip()
            elements = re.fullmatch(r"(\d+) elements, (\d+) queries", report)
            assert elements, report
            seen[strategy] = (out_path.read_bytes(), elements.group(1))
        assert seen["bulk"] == seen["nested-loop"]
        bulk_queries.append(int(elements.group(2)))
    # One query per query-bearing node, and nothing run correlated — CI's
    # smoke greps for it.
    assert bulk_queries == [7, 3]
    ci = (Path(__file__).parent.parent / ".github/workflows/ci.yml").read_text()
    for count in bulk_queries:
        assert f"grep -q ' elements, {count} queries$'" in ci
    assert tree_calls == []
    assert main(
        ["materialize", *common, "--view", str(composed_path),
         "--db", str(demo_dir / "hotel.sqlite"), "--strategy", "bulk",
         "--pretty"]
    ) == 0
    assert len(tree_calls) == 1


def test_materialize_bulk_refuses_a_view_it_cannot_plan(demo_dir, capsys):
    """A tag query with two ``hotelid`` columns has no bulk plan: ``--strategy
    bulk`` exits 1 with the typed refusal, which names the node and the
    construct, and writes nothing; the nested loop still materializes it."""
    from repro.schema_tree.builder import ViewBuilder
    from repro.schema_tree.io import load_catalog, save_view

    catalog_path = demo_dir / "catalog.xml"
    builder = ViewBuilder(load_catalog(str(catalog_path)))
    builder.node("hotel", "SELECT hotelid, hotelname AS hotelid FROM hotel")
    view_path = demo_dir / "twice.xml"
    save_view(builder.build(), str(view_path))
    reports = {}
    for strategy, code in (("bulk", 1), ("nested-loop", 0)):
        out_path = demo_dir / f"twice-{strategy}.xml"
        capsys.readouterr()
        assert main(
            ["materialize", "--catalog", str(catalog_path),
             "--view", str(view_path), "--db", str(demo_dir / "hotel.sqlite"),
             "--strategy", strategy, "--out", str(out_path)]
        ) == code
        assert out_path.exists() is (code == 0)
        reports[strategy] = capsys.readouterr().err.strip()
    assert reports["bulk"] == (
        "error: node 1 <hotel> has no bulk plan: duplicate output column names"
    )
    assert reports["nested-loop"].endswith(" queries")


def test_explain_command(demo_dir, capsys):
    assert main(
        [
            "explain",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(demo_dir / "stylesheet.xsl"),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "rung: composed" in out
    assert "Context Transition Graph" in out
    assert "Traverse View Query" in out


def test_missing_file_reports_error(tmp_path, capsys):
    code = main(
        [
            "explain",
            "--catalog", str(tmp_path / "nope.xml"),
            "--view", str(tmp_path / "nope.xml"),
            "--stylesheet", str(tmp_path / "nope.xsl"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_stylesheet_reports_error(demo_dir, tmp_path, capsys):
    bad = tmp_path / "bad.xsl"
    bad.write_text("<xsl:template><broken/></xsl:template>")
    code = main(
        [
            "compose",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(bad),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_run_recursive_stylesheet(demo_dir, tmp_path, capsys):
    recursive = tmp_path / "rec.xsl"
    from repro.workloads.paper import _FIGURE25

    recursive.write_text(_FIGURE25)
    code = main(
        [
            "run",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(recursive),
            "--db", str(demo_dir / "hotel.sqlite"),
            "--builtin-rules", "standard",
        ]
    )
    assert code == 0
    # The §5.3 pushdown is no rung: Figure 25 is served materialize-then-
    # transform, with the built-ins asked for, and the note says why.
    captured = capsys.readouterr()
    assert captured.err.startswith("rung: naive\n  note: composed rung refused:")
    assert captured.out == "<result_metro/>" * 3 + "\n"


def test_explain_dot_output(demo_dir, capsys):
    assert main(
        [
            "explain",
            "--catalog", str(demo_dir / "catalog.xml"),
            "--view", str(demo_dir / "view.xml"),
            "--stylesheet", str(demo_dir / "stylesheet.xsl"),
            "--dot",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert out.count("digraph") == 3  # ctg, tvq, stylesheet view
    assert "((0, root), R1)" in out


def test_parser_exposes_exactly_the_six_commands():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions if action.dest == "command"
    ]
    assert list(subparsers.choices) == [
        "compose", "explain", "materialize", "run", "serve-http", "demo",
    ]


def test_serve_http_has_no_fragment_tier_flags():
    parser = build_parser()
    (subparsers,) = [
        action for action in parser._actions if action.dest == "command"
    ]
    options = {
        flag: action
        for action in subparsers.choices["serve-http"]._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert "--fragment-policy" not in options
    assert "--maintenance" not in options  # every server maintains by delta
    assert options["--staleness"].default == "strict"
    assert "--backend" not in options
    # Every fault kind and setting is one --chaos spec.
    assert "--chaos" in options
    assert not [flag for flag in options if "fault" in flag]
    assert "--workers" not in options  # every server computes on one worker
    # A shard is one server: nothing to replicate, nothing to hedge onto.
    assert not [flag for flag in options if flag.startswith(("--replica", "--hedge"))]
    assert len(options) == 14
    # The one-shot oracle keeps its evaluator choice; serving has none.
    materialize = subparsers.choices["materialize"]
    (strategy,) = [
        action for action in materialize._actions
        if "--strategy" in action.option_strings
    ]
    assert strategy.choices == ["nested-loop", "memoized", "bulk"]
    assert "--strategy" not in options


@pytest.mark.parametrize(
    "fleet_flags, shards",
    [
        ([], None),
        (
            ["--shards", "2", "--chaos", "latency=0.5,latency-ms=0,seed=21"],
            2,
        ),
    ],
    ids=["single-box", "fleet"],
)
def test_serve_http_builds_listens_drains_and_writes_metrics(
    tmp_path, capsys, fleet_flags, shards
):
    metrics_path = tmp_path / "metrics.json"
    code = main(
        [
            "serve-http", "--scale", "1", "--port", "0",
            "--duration", "0.2", "--staleness", "strict",
            "--json", str(metrics_path),
        ]
        + fleet_flags
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "serve-http: listening on http://127.0.0.1:" in out
    assert "views: figure1, figure17, figure4" in out
    assert "drained=True" in out
    assert "open_connections=0" in out
    assert not [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("viewserver", "shardrouter"))
    ]
    metrics = json.loads(metrics_path.read_text())
    assert "maintenance" not in metrics
    assert metrics["staleness_policy"] == "strict"
    assert metrics["frontend_inflight"] == 0
    # Where state lives, single box or summed over the fleet.
    assert metrics["result_cache"]["states_resident"] == 0
    assert metrics["result_cache"]["state_captures"] == 0
    if shards is None:
        assert "router" not in metrics
    else:
        router = metrics["router"]
        assert router["shard_count"] == shards
        assert "replicas" not in router
        assert metrics["faults"]["seed"] == 21  # shard 0's server, armed


def test_chaos_member_faults_without_a_fleet_is_a_typed_error(capsys):
    code = main(
        [
            "serve-http", "--scale", "1", "--port", "0",
            "--duration", "0.1", "--chaos", "replica-crash=0.5",
        ]
    )
    assert code == 1  # a shard has no member to take down
    assert "unknown key 'replica-crash'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--chaos", "error=1.5"], "error_rate"),
        (["--chaos", "replica-crash=2", "--shards", "2"], "'replica-crash'"),
        (["--chaos", "latency-ms=-5"], "latency_ms"),
        (["--chaos", "window=0", "--shards", "2"], "'window'"),
        (["--chaos", "error=often"], "--chaos error"),
        (["--chaos", "seed=x"], "--chaos seed"),
        (["--chaos", "meteor=1"], "'meteor'"),
    ],
    ids=["rate", "fleet-rate", "latency", "window", "number", "seed", "key"],
)
def test_a_bad_chaos_spec_is_an_error_line_not_a_traceback(capsys, flags, named):
    code = main(
        ["serve-http", "--scale", "1", "--port", "0", "--duration", "0.1"]
        + flags
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --chaos")
    assert named in err
    assert "Traceback" not in err
