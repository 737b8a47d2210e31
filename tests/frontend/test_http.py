"""FrontendServer behaviors over real loopback sockets.

Every test speaks actual HTTP/1.1 bytes through asyncio streams —
no test client shims — because the parser, the keep-alive loop, and
the drain path ARE the subject under test.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import threading

import pytest

import repro
from repro.frontend import build_hotel_app, serve_app


@pytest.fixture(scope="module")
def app_env():
    app = build_hotel_app(scale=1, workers=2)
    yield app
    asyncio.run(app.close())


def http_exchange(scenario):
    """Run an async scenario(server) against a fresh listener.

    Tears the listener down with ``drain`` (not ``close``) so the
    module-scoped app survives for the next test.
    """

    async def main(app):
        server = await serve_app(app)
        try:
            return await scenario(server)
        finally:
            await server.drain(timeout=5.0)

    return main


async def raw_request(server, payload: bytes) -> bytes:
    """One connection, one raw byte exchange, read to EOF."""
    host, port = server.address
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(payload)
    await writer.drain()
    writer.write_eof()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    return response


def request_bytes(
    method: str,
    path: str,
    body: bytes = b"",
    close: bool = False,
    extra_headers: tuple = (),
) -> bytes:
    headers = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body:
        headers.append(f"Content-Length: {len(body)}")
    if close:
        headers.append("Connection: close")
    headers.extend(extra_headers)
    return ("\r\n".join(headers) + "\r\n\r\n").encode() + body


def publish_body(view="figure4", **kwargs) -> bytes:
    payload = {"view": view}
    payload.update(kwargs)
    return json.dumps(payload).encode()


def split_response(raw: bytes) -> tuple[int, dict, bytes]:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ")[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(": ")
        headers[name.lower()] = value
    return status, headers, body


class TestPublish:
    def test_publish_returns_the_view_bytes(self, app_env):
        async def scenario(server):
            raw = await raw_request(
                server,
                request_bytes(
                    "POST", "/publish", publish_body(), close=True
                ),
            )
            status, headers, body = split_response(raw)
            assert status == 200
            assert headers["content-type"] == "application/xml"
            assert headers["x-repro-outcome"] == "success"
            assert body.lstrip().startswith(b"<")
            return body

        app = app_env
        served = asyncio.run(http_exchange(scenario)(app))
        # byte-identical to an in-process compute of the same request
        async def direct(app):
            trace = await app.facade.submit(
                app.request_for(
                    "figure4", priority="interactive", bypass_cache=True
                )
            )
            return trace.xml.encode("utf-8")

        assert served == asyncio.run(direct(app))

    def test_unknown_view_is_a_400(self, app_env):
        async def scenario(server):
            raw = await raw_request(
                server,
                request_bytes(
                    "POST",
                    "/publish",
                    publish_body(view="figure99"),
                    close=True,
                ),
            )
            status, _, body = split_response(raw)
            assert status == 400
            assert b"figure99" in body

        asyncio.run(http_exchange(scenario)(app_env))

    def test_bad_json_is_a_400(self, app_env):
        async def scenario(server):
            raw = await raw_request(
                server,
                request_bytes(
                    "POST", "/publish", b"{not json", close=True
                ),
            )
            status, _, _ = split_response(raw)
            assert status == 400

        asyncio.run(http_exchange(scenario)(app_env))


class TestProtocol:
    def test_keep_alive_serves_many_on_one_connection(self, app_env):
        async def scenario(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            for _ in range(3):
                writer.write(
                    request_bytes("GET", "/healthz")
                )
                await writer.drain()
                head = await reader.readuntil(b"\r\n\r\n")
                status, headers, _ = split_response(head)
                assert status == 200
                assert headers["connection"] == "keep-alive"
                body = await reader.readexactly(
                    int(headers["content-length"])
                )
                assert json.loads(body)["status"] == "ok"
            assert server.open_connections == 1
            writer.close()
            await writer.wait_closed()

        asyncio.run(http_exchange(scenario)(app_env))

    def test_connection_close_is_honored(self, app_env):
        async def scenario(server):
            raw = await raw_request(
                server, request_bytes("GET", "/healthz", close=True)
            )
            _, headers, _ = split_response(raw)
            assert headers["connection"] == "close"

        asyncio.run(http_exchange(scenario)(app_env))

    def test_unknown_path_404_and_wrong_method_405(self, app_env):
        async def scenario(server):
            raw = await raw_request(
                server, request_bytes("GET", "/nope", close=True)
            )
            assert split_response(raw)[0] == 404
            raw = await raw_request(
                server, request_bytes("GET", "/publish", close=True)
            )
            assert split_response(raw)[0] == 405

        asyncio.run(http_exchange(scenario)(app_env))

    def test_malformed_request_line_is_a_400(self, app_env):
        async def scenario(server):
            raw = await raw_request(server, b"NONSENSE\r\n\r\n")
            assert split_response(raw)[0] == 400
            assert server.protocol_errors >= 1

        asyncio.run(http_exchange(scenario)(app_env))

    def test_chunked_bodies_are_rejected(self, app_env):
        async def scenario(server):
            payload = (
                b"POST /publish HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"0\r\n\r\n"
            )
            raw = await raw_request(server, payload)
            assert split_response(raw)[0] == 400

        asyncio.run(http_exchange(scenario)(app_env))

    def test_oversized_body_is_a_413(self, app_env):
        async def scenario(server):
            payload = (
                b"POST /publish HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 99999999\r\n\r\n"
            )
            raw = await raw_request(server, payload)
            assert split_response(raw)[0] == 413

        asyncio.run(http_exchange(scenario)(app_env))


class TestLifecycle:
    async def _roundtrip(self, reader, writer):
        writer.write(request_bytes("GET", "/healthz"))
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        status, headers, _ = split_response(head)
        body = await reader.readexactly(int(headers["content-length"]))
        return status, json.loads(body)

    def test_draining_connections_get_503_and_close(self, app_env):
        async def scenario(server):
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            status, health = await self._roundtrip(reader, writer)
            assert status == 200 and health["status"] == "ok"
            # Flip the drain flag without tearing sockets down yet: a
            # parked keep-alive connection that speaks mid-drain must
            # be refused with 503 and closed.
            server._draining = True
            writer.write(request_bytes("GET", "/healthz"))
            await writer.drain()
            rest = await reader.read()  # to EOF: server closed it
            assert split_response(rest)[0] == 503
            writer.close()
            await writer.wait_closed()

        asyncio.run(http_exchange(scenario)(app_env))

    def test_the_collector_schedule_is_left_alone_while_listening(
        self, app_env
    ):
        """Serving does not retune the interpreter's collector: the trees
        and walkers a request drops are acyclic and freed as they are
        dropped, so the schedule a process starts with is the one it
        serves and drains with."""
        import gc

        before = gc.get_threshold()

        async def scenario(server):
            assert gc.get_threshold() == before
            host, port = server.address
            reader, writer = await asyncio.open_connection(host, port)
            status, _ = await self._roundtrip(reader, writer)
            assert status == 200
            assert gc.get_threshold() == before
            writer.close()
            await writer.wait_closed()

        asyncio.run(http_exchange(scenario)(app_env))  # listens, then drains
        assert gc.get_threshold() == before

    def test_drain_zeroes_sockets_and_stops_accepting(self, app_env):
        async def scenario(server):
            host, port = server.address
            # Park a keep-alive connection, then drain under it.
            reader, writer = await asyncio.open_connection(host, port)
            status, _ = await self._roundtrip(reader, writer)
            assert status == 200
            assert server.open_connections == 1
            assert await server.drain(timeout=5.0)
            # The parked socket is force-closed by the drain.
            assert await reader.read() == b""
            writer.close()
            await writer.wait_closed()
            for _ in range(100):
                if server.open_connections == 0:
                    break
                await asyncio.sleep(0.01)
            assert server.open_connections == 0
            # And the listener no longer accepts new connections.
            with pytest.raises(OSError):
                await asyncio.open_connection(host, port)

        asyncio.run(http_exchange(scenario)(app_env))

    def test_metrics_exposes_the_priority_section(self):
        async def scenario(server):
            raw = await raw_request(
                server, request_bytes("GET", "/metrics", close=True)
            )
            status, _, body = split_response(raw)
            assert status == 200
            report = json.loads(body)
            assert "priority" in report
            for cls in ("interactive", "batch", "background"):
                assert "shed" in report["priority"][cls]

        app = build_hotel_app(scale=1)
        try:
            asyncio.run(http_exchange(scenario)(app))
        finally:
            asyncio.run(app.close())


def test_a_write_waiting_at_the_gate_leaves_the_loop_answering():
    """``POST /write`` runs off the event loop, on the server's one
    worker. The worker is held inside a computation, holding its
    session, by a latch (a ``threading.Event``), so the write queues
    behind the compute: a ``GET /healthz`` on another connection still
    answers while it waits. The write answers once the latch opens, and
    the next publish sees it. A timer opens the latch after 5 s, so a
    loop blocked by the write fails the test instead of hanging it."""
    app = build_hotel_app(scale=1)
    server = app.backend
    entered, opened = threading.Event(), threading.Event()
    guard = server._deadline_guard

    @contextlib.contextmanager
    def held(deadline):
        with guard(deadline) as db:
            entered.set()
            opened.wait(30)
            yield db

    async def scenario(frontend):
        _, headers, before = split_response(await raw_request(
            frontend, request_bytes("POST", "/publish", publish_body("figure1"))
        ))
        assert headers["x-repro-freshness"] == "miss"
        server._deadline_guard = held
        compute = asyncio.ensure_future(raw_request(frontend, request_bytes(
            "POST", "/publish", publish_body("figure1", bypass_cache=True)
        )))
        assert await asyncio.to_thread(entered.wait, 30)
        write = asyncio.ensure_future(
            raw_request(frontend, request_bytes("POST", "/write"))
        )
        while not frontend._write_lock.locked() and not opened.is_set():
            await asyncio.sleep(0.005)  # until the write is taken in
        status, _, body = split_response(
            await raw_request(frontend, request_bytes("GET", "/healthz"))
        )
        answered_while_held = not opened.is_set()
        assert status == 200 and json.loads(body)["status"] == "ok"
        assert answered_while_held
        assert not write.done()
        opened.set()
        status, _, body = split_response(await write)
        assert (status, json.loads(body)) == (200, {"writes_applied": 1})
        assert split_response(await compute)[0] == 200
        _, headers, after = split_response(await raw_request(
            frontend, request_bytes("POST", "/publish", publish_body("figure1"))
        ))
        assert headers["x-repro-freshness"] != "hit"
        _, _, fresh = split_response(await raw_request(frontend, request_bytes(
            "POST", "/publish", publish_body("figure1", bypass_cache=True)
        )))
        assert after == fresh != before

    timer = threading.Timer(5.0, opened.set)
    timer.start()
    try:
        asyncio.run(http_exchange(scenario)(app))
    finally:
        opened.set()
        timer.cancel()
        asyncio.run(app.close())


def test_drain_waits_for_a_write_in_flight():
    """A write taken in before the drain runs to its end on the server's
    worker before the drain reports, so closing the app after it never
    closes the database under the write. The write is held by a latch."""
    app = build_hotel_app(scale=1)
    entered, opened = threading.Event(), threading.Event()
    write_fn = app._write_fn
    threads = []

    def held(index):
        threads.append(threading.current_thread().name)
        entered.set()
        opened.wait(30)
        return write_fn(index)

    app._write_fn = held

    async def main():
        frontend = await serve_app(app)
        write = asyncio.ensure_future(
            raw_request(frontend, request_bytes("POST", "/write"))
        )
        assert await asyncio.to_thread(entered.wait, 30)
        drain = asyncio.ensure_future(frontend.drain(timeout=30))
        await asyncio.sleep(0.2)
        assert not drain.done()
        opened.set()
        assert await drain
        status, _, body = split_response(await write)
        assert (status, json.loads(body)) == (200, {"writes_applied": 1})
        assert [name.split("_")[0] for name in threads] == ["viewserver"]

    try:
        asyncio.run(main())
    finally:
        opened.set()
        asyncio.run(app.close())


def test_importing_the_front_end_loads_no_harness_or_baseline_module():
    """Layering: a server process imports the serving tiers only — the
    experiment harness, the naive baseline and the fault kit stay out of
    it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    probe = (
        "import sys, repro.frontend; "
        "print([m for m in sys.modules "
        "if m.startswith(('repro.harness', 'repro.baseline', "
        "'repro.resilience.faults'))])"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "[]"
