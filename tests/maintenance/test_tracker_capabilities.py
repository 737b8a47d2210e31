"""Regression tests: how a WriteTracker attaches to, records on and
detaches from an engine.

A connection that refuses the capture makes attach fail loudly and
leaves the engine untracked — the "capture first" invariant of
``Database.attach_tracker`` (a half-attached engine would undercount
silently); the engine records its own write API and raw SQL alike;
detach never raises.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.maintenance.tracker import WriteTracker
from repro.relational.engine import Database
from repro.relational.schema import Catalog, table


def _catalog() -> Catalog:
    return Catalog([
        table("t", ("id", "INTEGER"), ("v", "TEXT"), primary_key="id"),
    ])


@pytest.fixture()
def db():
    db = Database(_catalog())
    yield db
    db.close()


def test_auto_attach_degrades_loudly(db):
    """A connection that refuses the capture (here: a closed one)
    makes attach raise — never a tracker that silently captures
    nothing — and leaves the engine untracked."""
    db.close()
    with pytest.raises(sqlite3.ProgrammingError):
        db.attach_tracker(WriteTracker())
    assert db.tracker is None


def test_failed_auto_attach_leaves_engine_untracked(db, monkeypatch):
    """The raise must happen before any tracker state lands: a
    half-attached engine (tracker set, capture absent) would undercount
    silently — the worst outcome."""

    def refuse(_driver, connection, catalog, record):
        raise sqlite3.OperationalError("change capture refused")

    monkeypatch.setattr(type(db.driver), "install_change_capture", refuse)
    tracker = WriteTracker()
    with pytest.raises(sqlite3.OperationalError):
        db.attach_tracker(tracker)
    assert db.tracker is None
    # Inserts after the failed attach record nothing on the tracker
    # (the engine is untracked) rather than half-recording.
    db.insert_rows("t", [{"id": 1, "v": "a"}])
    assert tracker.version("t") == 0
    # And a subsequent attach works normally.
    monkeypatch.undo()
    db.attach_tracker(tracker)
    db.insert_rows("t", [{"id": 2, "v": "b"}])
    assert tracker.version("t") == 1


def test_engine_records_its_writes_and_raw_sql(db):
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    db.insert_rows("t", [{"id": n, "v": "x"} for n in range(5)])
    assert tracker.version("t") == 1  # one bulk insert = one event
    assert tracker.rows_written == 5
    db.run_sql("UPDATE t SET v = 'y' WHERE id = 0")
    assert tracker.version("t") == 2  # raw SQL records itself
    change = tracker.changes_since({"t": 1}, ["t"])["t"]
    assert (change.keys, change.columns) == ({0}, {"v"})


def test_detach_never_raises(db):
    """Detach from an engine that never attached, and twice after an
    attach: each removes the capture and nothing else."""
    WriteTracker.detach(db)
    tracker = WriteTracker()
    db.attach_tracker(tracker)
    WriteTracker.detach(db)
    WriteTracker.detach(db)
    db.run_sql("UPDATE t SET v = 'z'")
    assert tracker.version("t") == 0
