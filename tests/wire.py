"""One in-process :class:`~repro.server.QueryServer` harness for tests.

:func:`served` boots a server over the TC program below (or another
program) on an ephemeral port (``port=0``), with a metrics registry
and an in-memory query log, and runs ``serve_forever`` on a daemon
thread; :func:`request` talks to it over a real socket, so routing,
status codes, headers and bodies are observed exactly as a client
would.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

from repro.logutil import QueryLogger
from repro.metrics import MetricsRegistry
from repro.server import QueryServer
from repro.session import DeductiveDatabase

PROGRAM = """
    P(x, y) :- A(x, z), P(z, y).
    P(x, y) :- A(x, y).
    A(a, b). A(b, c). A(c, d).
"""

CLOSURE = {("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
           ("b", "d"), ("c", "d")}


@contextmanager
def served(*, program: str = PROGRAM, **kwargs):
    """A running server over *program* (:data:`PROGRAM` by default);
    *kwargs* go to :class:`QueryServer`.  Shut down and closed on
    exit."""
    session = DeductiveDatabase(metrics=MetricsRegistry(),
                                query_log=QueryLogger(io.StringIO()))
    session.load(program)
    server = QueryServer(session, port=0, **kwargs)
    # a short poll interval lets shutdown return in milliseconds
    thread = threading.Thread(target=server.httpd.serve_forever,
                              args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.close()
        thread.join(timeout=5)


def request(server, method: str, path: str, document=None,
            headers: dict | None = None):
    """(status, body, response headers) without raising on HTTP errors;
    JSON bodies are parsed, any other body is returned as text."""
    data = (json.dumps(document).encode("utf-8")
            if document is not None else None)
    fields = {"Content-Type": "application/json", **(headers or {})}
    url = f"http://{server.host}:{server.port}{path}"
    call = urllib.request.Request(url, data, fields, method=method)
    try:
        response = urllib.request.urlopen(call, timeout=10)
    except urllib.error.HTTPError as error:
        response = error
    with response:
        raw = response.read()
        if response.headers.get_content_type() == "application/json":
            return response.status, json.loads(raw), response.headers
        return response.status, raw.decode("utf-8"), response.headers
