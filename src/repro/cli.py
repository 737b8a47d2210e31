"""Command-line interface: ``python -m repro <command>``.

Workflows:

.. code-block:: bash

    # Create demo artifacts (catalog, view, stylesheet, sqlite database).
    python -m repro demo --out demo/ --scale 2

    # Compose a stylesheet with a view into a stylesheet view.
    python -m repro compose --catalog demo/catalog.xml \\
        --view demo/view.xml --stylesheet demo/stylesheet.xsl \\
        --out demo/composed.xml [--paper-mode] [--prune]

    # Show the intermediate structures (CTG, TVQ, plan notes).
    python -m repro explain --catalog ... --view ... --stylesheet ...

    # Materialize a (possibly composed) view against a database.
    python -m repro materialize --catalog ... --view demo/composed.xml \\
        --db demo/hotel.sqlite [--strategy nested-loop|bulk] [--pretty]

    # One-shot: plan a stylesheet (composed, else naive) and execute it.
    python -m repro run --catalog ... --view demo/view.xml \\
        --stylesheet demo/stylesheet.xsl --db demo/hotel.sqlite

    # Serve the hotel workload over HTTP (POST /publish, POST /write,
    # GET /metrics, GET /healthz); final metrics go to --json on shutdown.
    python -m repro serve-http --scale 2 --port 8472 \\
        [--staleness strict] [--shards 2] [--json metrics.json]
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.core.compose import compose
from repro.core.ctg import build_ctg
from repro.core.optimize import prune_stylesheet_view
from repro.core.tvq import build_tvq
from repro.errors import ReproError
from repro.relational.engine import Database
from repro.schema_tree.bulk_evaluator import BulkViewEvaluator
from repro.schema_tree.evaluator import STRATEGIES, ViewEvaluator
from repro.schema_tree.io import (
    load_catalog,
    load_view,
    save_catalog,
    save_view,
)
from repro.xmlcore.serializer import serialize, serialize_pretty
from repro.xslt.parser import parse_stylesheet


def _read_stylesheet(path: str):
    with open(path) as handle:
        return parse_stylesheet(handle.read())


def _write_output(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text)
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def cmd_compose(args: argparse.Namespace) -> int:
    """``repro compose``: compose a stylesheet with a view file."""
    catalog = load_catalog(args.catalog)
    view = load_view(args.view, catalog)
    stylesheet = _read_stylesheet(args.stylesheet)
    composed = compose(view, stylesheet, catalog, paper_mode=args.paper_mode)
    if args.prune:
        report = prune_stylesheet_view(composed, catalog)
        print(
            f"pruned {report.columns_removed} dead columns from "
            f"{report.nodes_pruned} nodes",
            file=sys.stderr,
        )
    from repro.schema_tree.io import view_to_xml

    _write_output(view_to_xml(composed), args.out)
    return 0


def _compiled(args: argparse.Namespace, report) -> tuple:
    """``(catalog, view, stylesheet, plan)`` of ``args``'s files, the plan
    from the one compile ladder; its rung, and why the rungs above it
    refused, go to ``report`` before a refusal raises."""
    from repro.serving import plan_for

    catalog = load_catalog(args.catalog)
    view = load_view(args.view, catalog)
    stylesheet = _read_stylesheet(args.stylesheet)
    plan = plan_for(view, stylesheet, catalog)
    print(f"rung: {plan.rung}", file=report)
    for note in plan.notes:
        print(f"  note: {note}", file=report)
    return catalog, view, stylesheet, plan.check()


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: print the plan and intermediate structures."""
    catalog, view, stylesheet, plan = _compiled(args, sys.stdout)
    print()
    if plan.rung == "composed":
        from repro.core.rewrites.pipeline import rewrite_to_basic

        lowered = rewrite_to_basic(stylesheet)
        ctg = build_ctg(view, lowered)
        tvq = build_tvq(ctg, catalog)
        if args.dot:
            from repro.core.visualize import ctg_to_dot, tvq_to_dot, view_to_dot

            print(ctg_to_dot(ctg))
            print()
            print(tvq_to_dot(tvq))
            print()
            print(view_to_dot(plan.view, title="stylesheet_view"))
            return 0
        print("== Context Transition Graph ==")
        print(ctg.describe())
        print()
        print("== Traverse View Query ==")
        print(tvq.describe())
        print()
    print("== Output view ==")
    print(plan.view.describe())
    if plan.stylesheet is not None:
        print()
        print("== Interpreted stylesheet rules ==")
        for rule in plan.stylesheet.rules:
            print(f"  match={rule.match.to_text()!r} mode={rule.mode!r}")
    return 0


def cmd_materialize(args: argparse.Namespace) -> int:
    """``repro materialize``: evaluate a view file against a database."""
    catalog = load_catalog(args.catalog)
    view = load_view(args.view, catalog)
    bulk = args.strategy == "bulk"
    db = Database.open(catalog, args.db)
    try:
        evaluator = BulkViewEvaluator(db) if bulk else ViewEvaluator(db)
        if bulk and not args.pretty:
            # Nothing here keeps the tree: rows go straight to text.
            text = evaluator.serialize(view)
        else:
            document = evaluator.materialize(view)
            text = serialize_pretty(document) if args.pretty else serialize(document)
        _write_output(text, args.out)
        print(
            f"{evaluator.stats.elements_created} elements, "
            f"{db.stats.queries_executed} queries",
            file=sys.stderr,
        )
    finally:
        db.close()
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run``: plan a stylesheet with the compile ladder and execute
    the plan with the bulk evaluator (``--builtin-rules``: the naive
    rung's built-ins)."""
    catalog, _view, _stylesheet, plan = _compiled(args, sys.stderr)
    db = Database.open(catalog, args.db)
    try:
        document = plan.run(BulkViewEvaluator(db), args.builtin_rules)
        text = serialize_pretty(document) if args.pretty else serialize(document)
        _write_output(text, args.out)
    finally:
        db.close()
    return 0


def _frontend_app_from_args(args: argparse.Namespace):
    """Build a :class:`~repro.frontend.app.PublishingApp` from CLI flags.

    Assembles the resilience policy that
    :func:`~repro.frontend.app.build_hotel_app` takes as an object, and
    arms ``--chaos`` on the built backend
    (:func:`repro.resilience.faults.inject`).
    """
    from repro.frontend import build_hotel_app

    chaos = None
    if args.chaos is not None:  # parsed before anything is opened
        from repro.resilience.faults import inject, parse_chaos

        chaos = parse_chaos(args.chaos)
    resilience = None
    if (
        args.deadline_ms is not None
        or args.retries > 0
        or args.breaker_threshold > 0
        or args.queue_limit is not None
        or args.no_degraded
    ):
        from repro.resilience import ResiliencePolicy

        resilience = ResiliencePolicy(
            deadline_ms=args.deadline_ms,
            retries=args.retries,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_ms=args.breaker_cooldown_ms,
            queue_limit=args.queue_limit,
            degraded=not args.no_degraded,
        )
    app = build_hotel_app(
        scale=args.scale,
        staleness=args.staleness,
        resilience=resilience,
        shards=args.shards,
    )
    if chaos is not None:
        inject(app.backend, chaos)
    return app


def _add_frontend_build_args(parser: argparse.ArgumentParser) -> None:
    """The workload and resilience flags that build the serving stack."""
    parser.add_argument("--scale", type=int, default=2,
                        help="hotel workload scale factor (default: 2)")
    parser.add_argument(
        "--staleness", metavar="POLICY", default="strict",
        help="result-cache staleness policy: strict or bounded:N "
        "(default: strict)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="serve through an N-shard scatter/merge fleet (default: 1)",
    )
    parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="inject seeded faults: comma-separated KEY=VALUE pairs, e.g. "
        "error=0.3,seed=7. Rates: error, latency, wrong-shape, "
        "compile-error (shard 0's server on a fleet); settings: "
        "latency-ms (20), seed (0)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline (cooperative cancel + hard interrupt)",
    )
    parser.add_argument(
        "--retries", type=int, default=0,
        help="retry budget for transient failures",
    )
    parser.add_argument(
        "--breaker-threshold", type=int, default=0, metavar="N",
        help="consecutive failures that open a plan's breaker (0 off)",
    )
    parser.add_argument(
        "--breaker-cooldown-ms", type=float, default=1000.0, metavar="MS",
        help="open-breaker cooldown before half-open trials",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        help="shed requests beyond 1 + N in flight (the worker's and its "
        "queue of N)",
    )
    parser.add_argument(
        "--no-degraded", action="store_true",
        help="disable the degraded-stale fallback",
    )


def cmd_serve_http(args: argparse.Namespace) -> int:
    """``repro serve-http``: run the async HTTP publishing front end.

    Builds the hotel workload application (staleness, shards,
    resilience, chaos) and serves it over stdlib-asyncio
    HTTP/1.1 on ``--host:--port`` — ``POST /publish``, ``GET /metrics``,
    ``GET /healthz``, keep-alive connections, graceful drain on
    shutdown. ``--duration`` bounds the run for scripted use; the
    default serves until interrupted.
    """
    import asyncio
    import json

    from repro.frontend import serve_app

    async def run() -> dict:
        app = _frontend_app_from_args(args)
        server = await serve_app(app, args.host, args.port)
        host, port = server.address
        print(f"serve-http: listening on http://{host}:{port}")
        print(f"views: {', '.join(app.view_names())}")
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # until KeyboardInterrupt
        except (KeyboardInterrupt, asyncio.CancelledError):
            pass
        finally:
            print("serve-http: draining...")
            drained = await server.close()
            print(
                f"serve-http: drained={drained} "
                f"requests_handled={server.requests_handled} "
                f"open_connections={server.open_connections}"
            )
        return server.app.facade.metrics()

    try:
        metrics = asyncio.run(run())
    except KeyboardInterrupt:
        return 0
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    """``repro demo``: write demo catalog/view/stylesheet/database files."""
    from repro.workloads.hotel import (
        HotelDataSpec,
        hotel_catalog,
        populate_hotel_database,
    )
    from repro.workloads.paper import figure1_view, _FIGURE4

    os.makedirs(args.out, exist_ok=True)
    catalog = hotel_catalog()
    catalog_path = os.path.join(args.out, "catalog.xml")
    view_path = os.path.join(args.out, "view.xml")
    stylesheet_path = os.path.join(args.out, "stylesheet.xsl")
    db_path = os.path.join(args.out, "hotel.sqlite")
    save_catalog(catalog, catalog_path)
    save_view(figure1_view(catalog), view_path)
    with open(stylesheet_path, "w") as handle:
        handle.write(_FIGURE4.strip() + "\n")
    if os.path.exists(db_path):
        os.remove(db_path)
    db = Database(catalog, path=db_path)
    populate_hotel_database(db, HotelDataSpec().scaled(args.scale))
    db.close()
    for path in (catalog_path, view_path, stylesheet_path, db_path):
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argparse parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compose XSL transformations with XML publishing views "
        "(SIGMOD 2003 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compose_parser = sub.add_parser("compose", help="compose a stylesheet with a view")
    compose_parser.add_argument("--catalog", required=True)
    compose_parser.add_argument("--view", required=True)
    compose_parser.add_argument("--stylesheet", required=True)
    compose_parser.add_argument("--out", "-o")
    compose_parser.add_argument("--paper-mode", action="store_true",
                                help="reproduce the paper's exact query shapes")
    compose_parser.add_argument("--prune", action="store_true",
                                help="run dead-column elimination")
    compose_parser.set_defaults(func=cmd_compose)

    explain_parser = sub.add_parser("explain", help="show CTG/TVQ/plan")
    explain_parser.add_argument("--catalog", required=True)
    explain_parser.add_argument("--view", required=True)
    explain_parser.add_argument("--stylesheet", required=True)
    explain_parser.add_argument("--dot", action="store_true",
                                help="emit Graphviz DOT instead of text")
    explain_parser.set_defaults(func=cmd_explain)

    materialize_parser = sub.add_parser(
        "materialize", help="evaluate a view against a database"
    )
    materialize_parser.add_argument("--catalog", required=True)
    materialize_parser.add_argument("--view", required=True)
    materialize_parser.add_argument("--db", required=True)
    materialize_parser.add_argument("--out", "-o")
    materialize_parser.add_argument(
        "--strategy", default="nested-loop", choices=list(STRATEGIES),
        help="execution strategy (default: nested-loop)",
    )
    materialize_parser.add_argument("--pretty", action="store_true")
    materialize_parser.set_defaults(func=cmd_materialize)

    run_parser = sub.add_parser("run", help="plan and execute a stylesheet")
    run_parser.add_argument("--catalog", required=True)
    run_parser.add_argument("--view", required=True)
    run_parser.add_argument("--stylesheet", required=True)
    run_parser.add_argument("--db", required=True)
    run_parser.add_argument("--out", "-o")
    run_parser.add_argument("--pretty", action="store_true")
    run_parser.add_argument("--builtin-rules", default="empty",
                            choices=["empty", "standard"])
    run_parser.set_defaults(func=cmd_run)

    http_parser = sub.add_parser(
        "serve-http", help="run the async HTTP publishing front end"
    )
    _add_frontend_build_args(http_parser)
    http_parser.add_argument("--host", default="127.0.0.1",
                             help="bind address (default: 127.0.0.1)")
    http_parser.add_argument("--port", type=int, default=8472,
                             help="bind port, 0 = ephemeral (default: 8472)")
    http_parser.add_argument(
        "--duration", type=float, default=0.0, metavar="SECONDS",
        help="serve for SECONDS then drain (default: until interrupted)",
    )
    http_parser.add_argument("--json", metavar="PATH",
                             help="write final metrics as JSON on shutdown")
    http_parser.set_defaults(func=cmd_serve_http)

    demo_parser = sub.add_parser("demo", help="write demo artifacts")
    demo_parser.add_argument("--out", default="repro-demo")
    demo_parser.add_argument("--scale", type=int, default=1)
    demo_parser.set_defaults(func=cmd_demo)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
