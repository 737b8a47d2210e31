"""The correctness oracle: materialize-then-transform on the same data.

``repro.baseline.materialize.NaivePipeline`` is the reference every
served byte is compared against. When several stylesheets are checked
against one data state the oracle shares stage one (materializing the
Figure 1 document) between them, which is the naive pipeline's own
code with the common stage hoisted, and it cross-checks the hoisted
form against a real ``NaivePipeline.run`` the first time it is used.

``naive_seconds`` times the naive pipeline with the cyclic collector
paused: the call shares a process with a server whose caches hold a
few hundred thousand live objects, and a full collection triggered by
the naive run's allocations would walk that heap and charge the
baseline for the server's memory. (The served path is never measured
this way: its GC cost is the program's.)
"""

from __future__ import annotations

import gc
import time


class Oracle:
    """Naive output (and naive cost) for registry entries of one app."""

    def __init__(self, app, workload, scale):
        self.app = app
        self._mirror = workload.shards > 1 or workload.replicas > 0
        if self._mirror:
            # A fleet's writes land on the shard databases, never on
            # ``app.database``: replay them on a single-box copy.
            from repro.workloads.hotel import HotelDataSpec, build_hotel_database

            self.db = build_hotel_database(HotelDataSpec().scaled(scale.scale))
        else:
            self.db = app.database
        self._applied = 0
        self._crosschecked = False

    def close(self) -> None:
        if self._mirror:
            self.db.close()

    def sync(self) -> None:
        """Bring the mirror to the app's write count (fleet only)."""
        if not self._mirror:
            return
        from repro.maintenance import hotel_write

        while self._applied < self.app.writes_applied:
            hotel_write(self.db, self._applied)
            self._applied += 1

    def expected_xml(self, entries) -> dict[str, str]:
        """Naive output of each entry on the current data state."""
        from repro.baseline.materialize import NaivePipeline
        from repro.schema_tree.evaluator import ViewEvaluator
        from repro.xmlcore.serializer import serialize
        from repro.xslt.processor import XSLTProcessor

        self.sync()
        entries = list(entries)
        view = entries[0].view
        document = ViewEvaluator(self.db).materialize(view)
        expected = {}
        for entry in entries:
            if entry.view is not view:
                raise ValueError("oracle entries must share one publishing view")
            if entry.stylesheet is None:
                expected[entry.name] = serialize(document)
                continue
            result = XSLTProcessor(
                entry.stylesheet, builtin_rules="empty"
            ).process_document(document)
            expected[entry.name] = serialize(result)
            if not self._crosschecked:
                self._crosschecked = True
                whole = NaivePipeline(entry.view, entry.stylesheet).run(self.db)
                if serialize(whole.document) != expected[entry.name]:
                    raise AssertionError(
                        f"hoisted naive pipeline diverged on {entry.name}"
                    )
        return expected

    def naive_seconds(self, entry) -> float:
        """Wall time of one naive run of ``entry``, output serialized."""
        from repro.baseline.materialize import NaivePipeline
        from repro.schema_tree.evaluator import ViewEvaluator
        from repro.xmlcore.serializer import serialize

        was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            if entry.stylesheet is None:
                serialize(ViewEvaluator(self.db).materialize(entry.view))
            else:
                serialize(
                    NaivePipeline(entry.view, entry.stylesheet).run(self.db).document
                )
            return time.perf_counter() - started
        finally:
            if was_enabled:
                gc.enable()
