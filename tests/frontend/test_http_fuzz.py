"""Fuzz robustness of the HTTP edge: hostile bytes end in a 4xx, never a 500.

In the manner of ``tests/test_parser_robustness.py``: whatever arrives on
the socket, :func:`repro.frontend.http.read_request` returns a
``Request``, ``None`` on a clean EOF, or raises ``HttpError`` with a 4xx
status — never anything else — and a live :class:`FrontendServer` answers
every exchange with a 200 or a 4xx, counts it, leaves no socket behind and
never lets a malformed request reach the backend. Inputs are raw
Hypothesis ``binary()`` plus mutations of valid requests: truncated heads
and bodies, oversized heads and bodies, bad / signed / underscored /
conflicting lengths, and nested, invalid, non-object and non-UTF-8 JSON.
"""

from __future__ import annotations

import asyncio
import json
from concurrent.futures import Future

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.frontend.app import PublishingApp, RegisteredView
from repro.frontend.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    FrontendServer,
    HttpError,
    Request,
    read_request,
)
from repro.serving.server import RequestTrace, check_strategy

# -- inputs -------------------------------------------------------------------

#: Content-Length values ``int()`` would read but HTTP does not allow,
#: beside ones it rejects too.
BAD_LENGTHS = [
    "1_0", "+5", "-1", " ", "", "0x10", "1e3", "³", "5 5", "5,5",
    "9" * 5000, str(MAX_BODY_BYTES + 1),
]

JSON_BODIES = [
    b'{"view": "v"}',
    b'{"view": "v", "priority": "batch", "bypass_cache": true, "label": "x"}',
    b'{"view": "nope"}',
    b'{"view": 7}',
    b'{"view": "v", "strategy": "nested-loop"}',
    b'{"view": "v", "strategy": ["bulk"]}',
    b'{"view": "v", "priority": {"a": []}}',
    b'{"view": "v", "priority": null}',
    b"[]", b"7", b"null", b'"v"', b"{", b'{"view": "v"', b"{'view': 'v'}",
    b'{"view": "v"}trailing', b"\xff\xfe{}", b'{"view": "\xc3\x28"}',
    b'{"view": "v", "label": 1e999}',
    b"[" * 100_000,
    b'{"view":' + b"[" * 100_000,
    b"[" * 400 + b"]" * 400,
    b'{"view": "v", "label": ' + b"[" * 400 + b"]" * 400 + b"}",
]

ROUTES = [
    ("POST", "/publish"), ("GET", "/metrics"), ("GET", "/healthz"),
    ("POST", "/write"), ("GET", "/publish"), ("DELETE", "/metrics"),
    ("POST", "/nowhere"), ("GET", "/"), ("BREW", "/coffee"), ("", ""),
]


def request_bytes(method, path, body=b"", headers=(), length=None):
    lines = [f"{method} {path} HTTP/1.1", "Host: fuzz", *headers]
    if body or length is not None:
        lines.append(f"Content-Length: {len(body) if length is None else length}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


@st.composite
def mutated_requests(draw):
    """A valid request, or one hostile edit away from one."""
    method, path = draw(st.sampled_from(ROUTES))
    body = draw(st.sampled_from(JSON_BODIES) | st.binary(max_size=64))
    if method == "GET" and draw(st.booleans()):
        body = b""
    data = request_bytes(method, path, body)
    edit = draw(st.sampled_from([
        "none", "none", "truncate", "bad-length", "two-lengths", "short-body",
        "long-body", "noise", "bare-lf", "no-colon", "chunked", "pipeline",
    ]))
    if edit == "truncate":
        data = data[: draw(st.integers(0, len(data)))]
    elif edit == "bad-length":
        data = request_bytes(
            method, path, body, length=draw(st.sampled_from(BAD_LENGTHS))
        )
    elif edit == "two-lengths":
        other = draw(st.integers(0, 99))
        data = request_bytes(
            method, path, body, headers=(f"Content-Length: {other}",),
            length=len(body),
        )
    elif edit == "short-body":
        data = request_bytes(method, path, body, length=len(body) + 7)
    elif edit == "long-body":
        data = request_bytes(method, path, body + b"GET / HTTP/1.1\r\n\r\n")
    elif edit == "noise":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=8)) + data[at:]
    elif edit == "bare-lf":
        data = data.replace(b"\r\n", b"\n")
    elif edit == "no-colon":
        data = request_bytes(method, path, body, headers=("no colon here",))
    elif edit == "chunked":
        data = request_bytes(
            method, path, headers=("Transfer-Encoding: chunked",)
        ) + b"3\r\nabc\r\n0\r\n\r\n"
    elif edit == "pipeline":
        data = data + request_bytes("GET", "/healthz") + data
    return data


hostile = st.binary(max_size=200) | mutated_requests()

OVERSIZED_HEAD = request_bytes(
    "GET", "/healthz", headers=("X-Pad: " + "a" * (MAX_HEADER_BYTES + 1),)
)
UNENDING_HEAD = b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * (1 << 17)
DECLARED_HUGE = request_bytes("POST", "/publish", length=MAX_BODY_BYTES + 1)

# -- read_request on a fed stream ---------------------------------------------


#: The stream limit ``FrontendServer.start`` gives its connections.
EDGE_LIMIT = MAX_HEADER_BYTES + MAX_BODY_BYTES


def parse(data: bytes, limit: int = EDGE_LIMIT):
    """``read_request`` over exactly ``data`` followed by EOF."""

    async def main():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(main())


def check_parse(data: bytes, limit: int = EDGE_LIMIT):
    """The only outcomes: a ``Request``, ``None`` for no bytes at all, or a
    4xx ``HttpError`` — from the parse and from reading the body as JSON."""
    try:
        request = parse(data, limit)
    except HttpError as exc:
        assert 400 <= exc.status < 500, (exc.status, exc.detail)
        return exc.status
    if request is None:
        assert data == b""
        return None
    assert isinstance(request, Request)
    assert len(request.body) <= MAX_BODY_BYTES
    try:
        assert isinstance(request.json(), dict)
    except HttpError as exc:
        assert exc.status == 400
    return request


@given(hostile)
@example(b"")
@example(OVERSIZED_HEAD)
@example(UNENDING_HEAD)
@example(DECLARED_HUGE)
@settings(max_examples=500, deadline=None)
def test_read_request_is_total(data):
    check_parse(data)


@pytest.mark.parametrize("length", BAD_LENGTHS)
def test_content_length_is_ascii_digits_or_refused(length):
    """``int()`` reads ``1_0`` as 10 and ``+5`` as 5; HTTP does not."""
    status = check_parse(request_bytes("POST", "/write", b"x" * 10, length=length))
    assert status == (413 if length == str(MAX_BODY_BYTES + 1) else 400)


def test_conflicting_content_lengths_are_refused():
    """Two lengths that disagree: the last one used to win silently."""
    twice = ("Content-Length: 2",)
    assert check_parse(request_bytes("POST", "/write", b"ab", twice)).body == b"ab"
    assert check_parse(request_bytes("POST", "/write", b"abc", twice)) == 400


def test_truncated_and_oversized_requests_are_4xx():
    assert check_parse(b"GET / HTTP/1.1\r\nHost") == 400
    assert check_parse(request_bytes("POST", "/write", b"ab", length=9)) == 400
    assert check_parse(OVERSIZED_HEAD) == 413
    assert check_parse(UNENDING_HEAD) == 400  # EOF before the blank line
    assert check_parse(UNENDING_HEAD, limit=1 << 16) == 413  # the limit first
    assert check_parse(DECLARED_HUGE) == 413


def test_json_too_deep_to_parse_is_a_400():
    """``json.loads`` raises ``RecursionError``, which is no ``ValueError``."""
    request = Request("POST", "/publish", {}, b"[" * 100_000)
    with pytest.raises(HttpError) as refused:
        request.json()
    assert refused.value.status == 400


# -- a live server over a stub backend ----------------------------------------


class InlineExecutor:
    """Runs a submitted call at once, on the submitting thread."""

    def submit(self, call, *args):
        done: Future = Future()
        done.set_result(call(*args))
        return done


class StubBackend:
    """Answers every admitted request at once; counts what reached it.
    A write runs on its inline executor."""

    def __init__(self):
        self.submitted = 0
        self.executor = InlineExecutor()

    def submit(self, request):
        check_strategy(request.strategy)  # as ViewServer.submit does, first
        self.submitted += 1
        trace = RequestTrace(
            request_id=self.submitted, label=request.label,
            strategy=request.strategy, cache_hit=False, plan_key="stub",
            priority=request.priority, xml="<ok/>",
        )
        answered: "Future[RequestTrace]" = Future()
        answered.set_result(trace)
        return answered

    def compile(self, request):
        pass  # the app compiles its views when it is built

    def metrics(self):
        return {"requests_served": self.submitted}

    def close(self):
        pass


class StubDatabase:
    def close(self):
        pass


@pytest.fixture(scope="module")
def live():
    """One loop, one listener, one stub-backed app for the whole module."""
    loop = asyncio.new_event_loop()
    backend = StubBackend()

    async def start():
        app = PublishingApp(
            {"v": RegisteredView("v", object(), None)}, backend,
            StubDatabase(), write_fn=lambda index: None,
        )
        return await FrontendServer(app).start()

    server = loop.run_until_complete(start())
    yield loop, server, backend
    assert loop.run_until_complete(server.close(timeout=5.0))
    assert server.open_connections == 0
    loop.close()


def split_responses(raw: bytes):
    """Every ``(status, headers, body)`` in one connection's answer."""
    responses = []
    while raw:
        head, separator, raw = raw.partition(b"\r\n\r\n")
        assert separator, head
        lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        headers = dict(line.lower().split(": ", 1) for line in lines[1:])
        length = int(headers["content-length"])
        responses.append((int(status), headers, raw[:length]))
        raw = raw[length:]
    return responses


def exchange(live, data: bytes):
    """Send ``data`` and EOF on a fresh connection; hold the answers to
    the edge's contract and return them."""
    loop, server, backend = live

    async def main():
        reader, writer = await asyncio.open_connection(*server.address)
        writer.write(data)
        await writer.drain()
        writer.write_eof()
        raw = await asyncio.wait_for(reader.read(), timeout=10.0)
        writer.close()
        await writer.wait_closed()
        for _ in range(200):  # the handler's ``finally`` runs after our EOF
            if server.open_connections == 0:
                break
            await asyncio.sleep(0.005)
        return raw

    before = (server.requests_handled, server.protocol_errors, backend.submitted)
    responses = split_responses(loop.run_until_complete(main()))
    handled = server.requests_handled - before[0]
    refused = server.protocol_errors - before[1]
    assert server.open_connections == 0
    assert handled + refused == len(responses) and refused <= 1
    published = 0
    for status, headers, body in responses:
        assert status == 200 or 400 <= status < 500, (status, body)
        if headers["content-type"] == "application/xml":
            assert (status, body) == (200, b"<ok/>")
            published += 1
        else:
            json.loads(body)
    # Nothing malformed reached the backend: it saw the 200s and only them.
    assert backend.submitted - before[2] == published
    if refused:
        assert responses[-1][1]["connection"] == "close"
    return responses


@given(hostile)
@example(b"")
@example(OVERSIZED_HEAD)
@example(DECLARED_HUGE)
@settings(max_examples=300, deadline=None)
def test_live_server_answers_hostile_bytes_with_4xx_or_200(live, data):
    responses = exchange(live, data)
    # The edge and the parser agree on the first request of the stream.
    first = check_parse(data)
    if first is None:
        assert responses == []
    elif isinstance(first, int):
        assert responses[0][0] == first and len(responses) == 1


def test_live_server_on_the_reproduced_defects(live):
    """The two bodies and the header that used to get a 500, a silent
    truncation to 10 bytes, and last-one-wins."""
    for body in (b"[" * 100_000, b'{"view":' + b"[" * 100_000):
        [(status, _headers, answer)] = exchange(
            live, request_bytes("POST", "/publish", body)
        )
        assert status == 400 and b"invalid JSON body" in answer
    good = b'{"view": "v"}'
    [(status, _headers, answer)] = exchange(
        live, request_bytes("POST", "/publish", good)
    )
    assert (status, answer) == (200, b"<ok/>")
    for data in (
        request_bytes("POST", "/publish", good + b"   ", length="1_6"),
        request_bytes("POST", "/publish", good, length="+13"),
        request_bytes("POST", "/publish", good, headers=("Content-Length: 2",)),
    ):
        [(status, headers, answer)] = exchange(live, data)
        assert status == 400 and b"Content-Length" in answer
        assert headers["connection"] == "close"
