"""The publishing application behind the HTTP front end.

The HTTP layer speaks in names — ``POST /publish`` says ``"view":
"figure4"`` — while the serving stack speaks in object graphs
(:class:`~repro.xml.schema_tree.SchemaTreeQuery`, stylesheets,
policies). :class:`PublishingApp` is the binding between the two: a
registry of named (view, stylesheet) pairs over one database, the
backend serving them (a :class:`~repro.serving.server.ViewServer` or a
:class:`~repro.sharding.router.ShardRouter` fleet), and the
:class:`~repro.frontend.facade.AsyncViewServer` facade wrapping it.

:func:`build_hotel_app` assembles the paper's hotel workload —
Figure 1 publishing view, Figure 4/17 stylesheets — over every
serving knob (staleness, resilience policy, shards), so the
HTTP tier serves byte-identical answers to the in-process paths the
differential suite compares against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError
from repro.frontend.facade import AsyncViewServer
from repro.maintenance.policy import StalenessPolicy
from repro.serving.server import SERVING_STRATEGY, PublishRequest, ViewServer


@dataclass(frozen=True)
class RegisteredView:
    """One named publishing entry: a view, optionally composed."""

    name: str
    view: object
    stylesheet: Optional[object]


class PublishingApp:
    """Named views + a serving backend + the async facade over it.

    The app owns whatever it was built from (database, tracker,
    backend) and tears it all down in :meth:`close`. On a fleet,
    ``database`` is the carving source: closed once the shards are
    carved, kept only for its catalog. ``request_for``
    is the only place HTTP parameters become a
    :class:`~repro.serving.server.PublishRequest`, so validation
    errors surface as :class:`~repro.errors.ReproError` (→ HTTP 400)
    before any serving work starts.

    Building the app compiles each registered view (``backend.compile``):
    one no rung plans, or a fleet cannot merge, fails the build by name.
    A view registered later compiles on its first request.
    """

    def __init__(
        self,
        registry: dict[str, RegisteredView],
        backend,
        database,
        write_fn=None,
    ):
        if not registry:
            raise ReproError("app needs at least one registered view")
        self.registry = registry
        self.backend = backend
        self.database = database
        for name in registry:
            try:
                backend.compile(self.request_for(name))
            except ReproError as exc:
                backend.close()
                database.close()
                raise ReproError(f"view {name!r} cannot be served: {exc}") from exc
        self.facade = AsyncViewServer(backend, own_backend=True)
        self._write_fn = write_fn
        self._writes_applied = 0
        self._closed = False

    def request_for(
        self,
        name: str,
        strategy: str = SERVING_STRATEGY,
        bypass_cache: bool = False,
        label: str = "",
    ) -> PublishRequest:
        """Translate HTTP parameters into a validated request."""
        entry = self.registry.get(name)
        if entry is None:
            raise ReproError(
                f"unknown view {name!r}; have {sorted(self.registry)}"
            )
        return PublishRequest(
            entry.view,
            entry.stylesheet,
            strategy=strategy,
            label=label or f"{name}/{strategy}",
            bypass_cache=bypass_cache,
        )

    def apply_write(self) -> int:
        """Apply one tracked workload write; returns writes so far.

        Backed by the write mix the app was built with (hotel writes
        for :func:`build_hotel_app`); ``POST /write`` calls it so a
        client can age cached results while serving.
        """
        if self._write_fn is None:
            raise ReproError("app was built without a write mix")
        self._write_fn(self._writes_applied)
        self._writes_applied += 1
        return self._writes_applied

    @property
    def writes_applied(self) -> int:
        """How many workload writes ``apply_write`` has run so far."""
        return self._writes_applied

    def view_names(self) -> list[str]:
        """The registered view names, sorted (the valid ``view`` values)."""
        return sorted(self.registry)

    async def close(self, drain_timeout: Optional[float] = 5.0) -> bool:
        """Drain the facade, close the backend and the database."""
        if self._closed:
            return True
        self._closed = True
        drained = await self.facade.close(drain_timeout)
        self.database.close()
        return drained


def build_hotel_app(
    scale: int = 1,
    workers: int = 1,
    staleness: str = "strict",
    maintenance: str = "delta",
    resilience=None,
    shards: int = 1,
    replicas: int = 0,
) -> PublishingApp:
    """The paper's hotel workload as a servable application.

    The one stack builder: writes captured in the engine with their keys
    (on the single box's database, on each shard's), served through
    result caches under ``staleness`` and maintained by delta, by a
    sharded fleet of one server per shard when ``shards > 1``, a single
    :class:`ViewServer` otherwise; a fleet's ``app.database`` is its
    carving source, closed once carved and kept only for its catalog.
    ``staleness`` is ``strict`` or ``bounded:N``; ``manual`` is refused,
    as nothing in the app invalidates.
    ``maintenance`` is a frozen call surface: ``"delta"`` is its one value,
    and so are ``workers`` and ``replicas``: accepted, and changing
    nothing (every server computes on one worker, and a shard has one
    server).
    """
    from repro.maintenance import hotel_write
    from repro.workloads.hotel import HotelDataSpec, build_hotel_database
    from repro.workloads.paper import (
        figure1_view,
        figure4_stylesheet,
        figure17_stylesheet,
    )

    # Before anything is opened: a rejected mode must leave no
    # database, tracker or pool behind.
    if maintenance != "delta":
        raise ReproError(
            f"unknown maintenance mode {maintenance!r}: every server "
            "maintains by delta"
        )
    if StalenessPolicy.parse(staleness).kind == "manual":
        # Only ViewServer.invalidate_tables freshens a manual entry, and
        # the app has no route to it: its reads would never see a write.
        raise ReproError(
            "staleness policy 'manual' cannot be served: the app has no "
            "invalidation route (use strict or bounded:N)"
        )
    db = build_hotel_database(HotelDataSpec().scaled(scale), cross_thread=True)
    if shards > 1:
        from repro.sharding import ShardRouter
        from repro.workloads.hotel import hotel_partition_scheme

        try:
            server = ShardRouter.build(
                db.catalog,
                db,
                hotel_partition_scheme(),
                shards,
                staleness=staleness,
                resilience=resilience,
            )
        finally:
            db.close()
        route = server.route_write
    else:
        try:
            server = ViewServer(
                db.catalog,
                db,
                staleness=staleness,
                resilience=resilience,
            )
        except BaseException:
            db.close()
            raise

        def route(write):
            return write(db)

    view = figure1_view(db.catalog)
    registry = {
        "figure1": RegisteredView("figure1", view, None),
        "figure4": RegisteredView("figure4", view, figure4_stylesheet()),
        "figure17": RegisteredView("figure17", view, figure17_stylesheet()),
    }
    return PublishingApp(
        registry,
        server,
        db,
        write_fn=lambda index: route(lambda source: hotel_write(source, index)),
    )
