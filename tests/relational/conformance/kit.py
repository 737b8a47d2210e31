"""The driver-conformance kit: the checks an engine driver must pass.

Each ``check_*`` method exercises one clause of the contract
:class:`~repro.relational.driver.SqliteDriver` fulfils for
:class:`~repro.relational.engine.Database` and the serving pool, using
only the public engine API: rows, placeholders and types round-trip,
snapshots snapshot, read-only sessions refuse writes, cancels cancel,
hooks capture. The pytest module in this package
(``test_conformance.py``) instantiates the kit once per engine driver —
sqlite's, the one engine — and calls one check per test; a second
engine's driver would have to pass the same checks.
"""

from __future__ import annotations

import threading
import time

from repro.errors import classify_error
from repro.maintenance.tracker import WriteTracker
from repro.relational.engine import Database
from repro.relational.schema import Catalog, table
from repro.sql.parser import parse_select

#: Values chosen to stress placeholder escaping and type fidelity:
#: embedded quotes, unicode, NULL, negative floats, a colon that must
#: not be mistaken for a named parameter, and a double that only
#: survives a round-trip at full 8-byte precision.
ROWS = [
    {"id": 1, "label": "plain", "score": 1.5},
    {"id": 2, "label": "it's ''quoted''", "score": -2.25},
    {"id": 3, "label": "uni-çødé ✓", "score": 0.1},
    {"id": 4, "label": None, "score": None},
    {"id": 5, "label": ":slot is not a parameter", "score": 1.7e308},
]

#: Runs ~6s uninterrupted on sqlite — long enough that a 100ms cancel
#: provably cut it short, bounded enough that a driver whose cancel
#: does nothing fails the check instead of hanging it.
HEAVY_SQL = (
    "WITH RECURSIVE c(x) AS "
    "(SELECT 1 UNION ALL SELECT x+1 FROM c WHERE x < 20000000) "
    "SELECT count(*) FROM c"
)


def conformance_catalog() -> Catalog:
    """One table covering every declared column type."""
    return Catalog([
        table(
            "items",
            ("id", "INTEGER"),
            ("label", "TEXT"),
            ("score", "REAL"),
            primary_key="id",
        ),
    ])


class DriverConformanceKit:
    """Run the driver contract against one driver instance."""

    def __init__(self, driver):
        self.driver = driver

    def build(self) -> Database:
        """A populated single-table database on this driver."""
        db = Database(conformance_catalog())
        assert db.driver is self.driver
        db.insert_rows("items", ROWS)
        return db

    # -- checks --------------------------------------------------------------

    def check_executemany_insert(self) -> None:
        """Bulk insert through the driver's insert statement, then count."""
        with Database(conformance_catalog()) as db:
            rows = [
                {"id": n, "label": f"row-{n}", "score": float(n)}
                for n in range(500)
            ]
            assert db.insert_rows("items", rows) == 500
            assert db.table_count("items") == 500

    def check_type_fidelity(self) -> None:
        """Every seeded value round-trips with Python type and value
        intact — including a double that only survives at full 8-byte
        precision."""
        with self.build() as db:
            fetched = db.run_sql("SELECT * FROM items ORDER BY id")
            assert len(fetched) == len(ROWS)
            for expected, got in zip(ROWS, fetched):
                for column, value in expected.items():
                    actual = got[column]
                    if value is None:
                        assert actual is None, (column, actual)
                    else:
                        assert type(actual) is type(value), (column, actual)
                        assert actual == value, (column, actual, value)

    def check_placeholder_roundtrip(self) -> None:
        """Tag-query parameters bind through their ``:name`` placeholders
        for every stress value (quotes, unicode, negatives)."""
        query = parse_select("SELECT * FROM items WHERE label = $p.label")
        with self.build() as db:
            for row in ROWS:
                if row["label"] is None:
                    continue  # = NULL matches nothing in SQL; not a
                    # placeholder concern
                hits = db.run_query(query, {"p": {"label": row["label"]}})
                assert [h["id"] for h in hits] == [row["id"]]
            by_score = parse_select(
                "SELECT id FROM items WHERE score < $p.score"
            )
            hits = db.run_query(by_score, {"p": {"score": 0.0}})
            assert [h["id"] for h in hits] == [2]

    def check_rows_are_tuples(self) -> None:
        """The row contract, said once (``Database.run_rows``): a fetched
        row is a plain ``tuple`` — on the live database, on a snapshot
        clone and on pooled read-only sessions of both modes (the pool
        opens its own connections) — and ``run_query`` is the same rows
        zipped with their names, a duplicate name suffixed ``__2``."""
        import os
        import tempfile

        from repro.serving.pool import ConnectionPool

        ordered = parse_select("SELECT id, label, score FROM items ORDER BY id")
        doubled = parse_select("SELECT id, label, id FROM items ORDER BY id")
        expected = [(r["id"], r["label"], r["score"]) for r in ROWS]

        def check(session: Database) -> None:
            names, rows = session.run_rows(ordered)
            assert names == ["id", "label", "score"]
            assert rows == expected
            assert all(type(row) is tuple for row in rows), type(rows[0])
            names, rows = session.run_rows(doubled)
            assert names == ["id", "label", "id__2"]
            assert all(type(row) is tuple for row in rows)
            assert session.run_query(doubled) == [
                {"id": r["id"], "label": r["label"], "id__2": r["id"]}
                for r in ROWS
            ]
            assert session.run_query(ordered) == ROWS

        with self.build() as db:
            check(db)
            snapshot = self.driver.snapshot(db)
            try:
                clone = Database.from_connection(
                    db.catalog, snapshot.connect(), read_only=True
                )
                check(clone)
                clone.close()
            finally:
                snapshot.close()
            with ConnectionPool(db.catalog, source=db, size=1) as pool:
                with pool.session() as session:
                    check(session)
        with tempfile.TemporaryDirectory() as folder:
            path = os.path.join(folder, "items-db")
            with Database(conformance_catalog(), path=path) as stored:
                stored.insert_rows("items", ROWS)
            with ConnectionPool(conformance_catalog(), path=path, size=1) as pool:
                with pool.session() as session:
                    check(session)

    def check_run_sql_binding(self) -> None:
        """Raw SQL binds ``:name`` placeholders from ``run_sql``'s
        bindings, and a colon inside a string literal is no parameter."""
        with self.build() as db:
            hits = db.run_sql(
                "SELECT id FROM items WHERE id = :wanted", {"wanted": 3}
            )
            assert [h["id"] for h in hits] == [3]
            literal = db.run_sql(
                "SELECT id FROM items WHERE label = ':slot is not a parameter'"
            )
            assert [h["id"] for h in literal] == [5]

    def check_read_only_enforcement(self) -> None:
        """A read-only snapshot session rejects DML at the engine level,
        and the engine's own write API refuses outright."""
        import pytest

        from repro.errors import ViewEvaluationError

        with self.build() as db:
            snapshot = self.driver.snapshot(db)
            try:
                session = Database.from_connection(
                    db.catalog, snapshot.connect(), read_only=True
                )
                self.driver.enforce_read_only(session.connection)
                with pytest.raises(self.driver.errors):
                    session.run_sql("DELETE FROM items")
                with pytest.raises(ViewEvaluationError):
                    session.insert_rows(
                        "items", [{"id": 99, "label": "x", "score": 0.0}]
                    )
                # Reads still work after the rejected writes.
                assert session.table_count("items") == len(ROWS)
                session.close()
            finally:
                snapshot.close()

    def check_snapshot_isolation_and_refresh(self) -> None:
        """Snapshot sessions see a point-in-time copy: source writes are
        invisible until ``refresh``, visible after."""
        with self.build() as db:
            snapshot = self.driver.snapshot(db)
            try:
                session = Database.from_connection(
                    db.catalog, snapshot.connect(), read_only=True
                )
                assert session.table_count("items") == len(ROWS)
                db.insert_rows(
                    "items", [{"id": 100, "label": "late", "score": 9.0}]
                )
                assert session.table_count("items") == len(ROWS)
                snapshot.refresh(db)
                assert session.table_count("items") == len(ROWS) + 1
                session.close()
            finally:
                snapshot.close()

    def check_cancel_under_load(self) -> None:
        """``driver.cancel`` from another thread cuts a long statement
        short, the error classifies transient, and the connection stays
        usable afterwards."""
        with self.build() as db:
            timer = threading.Timer(
                0.1, lambda: self.driver.cancel(db.connection)
            )
            timer.daemon = True
            timer.start()
            started = time.perf_counter()
            try:
                db.run_sql(HEAVY_SQL)
            except self.driver.errors as exc:
                elapsed = time.perf_counter() - started
                assert elapsed < 3.0, f"cancel took {elapsed:.1f}s to land"
                assert classify_error(exc) == "transient", exc
            else:
                raise AssertionError("heavy statement ran to completion")
            finally:
                timer.cancel()
            if not self.driver.sanitize(db.connection):
                raise AssertionError("connection unusable after cancel")
            assert db.table_count("items") == len(ROWS)

    def check_change_capture(self) -> None:
        """Auto capture records raw DML, once per statement, and stops
        at detach."""
        tracker = WriteTracker()
        with self.build() as db:
            db.attach_tracker(tracker, auto=True)
            db.run_sql("UPDATE items SET score = 3.5 WHERE id = 1")
            assert tracker.version("items") == 1
            db.insert_rows(
                "items", [{"id": 50, "label": "auto", "score": 0.0}]
            )
            # One bump from the hooks, none from the explicit path
            # (no double counting).
            assert tracker.version("items") == 2
            tracker.detach(db)
            db.run_sql("UPDATE items SET score = 4.5 WHERE id = 1")
            assert tracker.version("items") == 2

    def check_error_taxonomy(self) -> None:
        """A plain SQL mistake classifies permanent after wrapping."""
        from repro.errors import ViewEvaluationError

        with self.build() as db:
            try:
                db.run_query(parse_select("SELECT nope FROM items"))
            except ViewEvaluationError as exc:
                assert classify_error(exc) == "permanent"
            else:
                raise AssertionError("bad column did not raise")

    #: Every check, in the order the test module runs them.
    ALL = (
        "check_executemany_insert",
        "check_type_fidelity",
        "check_placeholder_roundtrip",
        "check_rows_are_tuples",
        "check_run_sql_binding",
        "check_read_only_enforcement",
        "check_snapshot_isolation_and_refresh",
        "check_cancel_under_load",
        "check_change_capture",
        "check_error_taxonomy",
    )
