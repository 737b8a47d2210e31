"""Regression tests: how a WriteTracker attaches to, records on and
detaches from an engine.

A connection that refuses the write hooks makes auto attach fail
loudly and leaves the engine untracked — the "hooks first" invariant of
``Database.attach_tracker`` (a half-attached engine would undercount
silently); the explicit ``record_write`` path versions correctly on its
own; detach never raises.
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
    """A connection that refuses the write hooks (here: a closed one)
    makes auto attach raise — never a tracker that silently captures
    nothing — and leaves the engine untracked."""
    db.connection.close()
    with pytest.raises(sqlite3.ProgrammingError):
        db.attach_tracker(WriteTracker(), auto=True)
    assert db.tracker is None


def test_failed_auto_attach_leaves_engine_untracked(db, monkeypatch):
    """The raise must happen before any tracker state lands: a
    half-attached engine (tracker set, hooks absent, explicit path
    standing down) would undercount silently — the worst outcome."""

    def refuse(_driver, connection, record):
        raise sqlite3.OperationalError("write hooks refused")

    monkeypatch.setattr(type(db.driver), "install_change_capture", refuse)
    tracker = WriteTracker()
    with pytest.raises(sqlite3.OperationalError):
        db.attach_tracker(tracker, auto=True)
    assert db.tracker is None
    # Inserts after the failed attach record nothing on the tracker
    # (the engine is untracked) rather than half-recording.
    db.insert_rows("t", [{"id": 1, "v": "a"}])
    assert tracker.version("t") == 0
    # And a subsequent *explicit* attach works normally.
    db.attach_tracker(tracker, auto=False)
    db.insert_rows("t", [{"id": 2, "v": "b"}])
    assert tracker.version("t") == 1


def test_explicit_recording_versions_correctly(db):
    tracker = WriteTracker()
    db.attach_tracker(tracker, auto=False)
    db.insert_rows("t", [{"id": n, "v": "x"} for n in range(5)])
    assert tracker.version("t") == 1  # one bulk insert = one event
    assert tracker.rows_written == 5
    db.run_sql("UPDATE t SET v = 'y' WHERE id = 0")
    # Raw SQL is the caller's responsibility on the explicit path.
    assert tracker.version("t") == 1
    db.record_write("t")
    assert tracker.version("t") == 2


def test_detach_never_raises(db):
    """Detach from an engine that never attached, and twice after an
    auto attach: each clears the hook slots and nothing else."""
    WriteTracker.detach(db)
    tracker = WriteTracker()
    db.attach_tracker(tracker, auto=True)
    WriteTracker.detach(db)
    WriteTracker.detach(db)
    db.run_sql("UPDATE t SET v = 'z'")
    assert tracker.version("t") == 0
