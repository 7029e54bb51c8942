"""The served workloads: ``repro serve`` in a child process, load from
this process over HTTP.

Readers are closed loops (callers of ``repro serve`` wait for each
reply); the served-rw writer is an open loop whose writes are timed
from their scheduled send time.  At most two client connections are
open at once: one reader, one writer.  Both go through the standard
library's ``http.client`` with its defaults, so the latencies include
what the server's socket writes cost such a client (see the README's
"Clients" section).
"""

from __future__ import annotations

import http.client
import itertools
import json
import re
import select
import signal
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import gen
import measure

E2E = Path(__file__).resolve().parent
#: a client gives up on a request after this long (counted as failed)
CLIENT_TIMEOUT_S = 30.0
#: an answer row in any JSON layout: ``[`` then the first string value
_ROW = re.compile(rb'\[\s*"')


class Server:
    """One ``repro serve --port 0 --trace-sample 0`` process; with
    *spans_path*, launched through ``traced_serve.py``."""

    def __init__(self, root: Path, env: dict, program: Path,
                 log: Path, spans_path: Path | None = None) -> None:
        serve = ["serve", "--port", "0", "--trace-sample", "0",
                 str(program)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(E2E / "traced_serve.py"),
                       str(spans_path), *serve]
        self.spawned = perf_counter()
        with open(log, "ab") as stderr:
            self.proc = subprocess.Popen(command, cwd=root, env=env,
                                         stdout=subprocess.PIPE,
                                         stderr=stderr, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        banner = self.proc.stdout.readline() if ready else ""
        if "serving on http://" not in banner:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.port = int(banner.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        return measure.peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Client:
    """One keep-alive ``http.client`` connection; after a failure the
    next request opens a new one."""

    def __init__(self, port: int) -> None:
        self.connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=CLIENT_TIMEOUT_S)

    def request(self, method: str, path: str, document=None,
                qid: str | None = None) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json"}
        if qid is not None:
            headers["X-Repro-Query-Id"] = qid
        body = None if document is None else json.dumps(document).encode()
        try:
            self.connection.request(method, path, body, headers)
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            raise

    def close(self) -> None:
        self.connection.close()


def _field(body: bytes, name: str):
    """Decode one top-level field of a response without parsing the
    answers array (the field names never occur inside answer values)."""
    start = body.rindex(b'"' + name.encode() + b'"')
    colon = body.index(b":", start) + 1
    text = body[colon:colon + 65536].decode("utf-8", "replace")
    value, _ = json.JSONDecoder().raw_decode(text.lstrip())
    return value


STAT_FIELDS = ("rounds", "probes", "derived", "vector_rows", "answers",
               "answer_cache_hits")


def read(client: Client, query: str, check, qid: str) -> dict:
    """One ``POST /query``, timed from send to the last body byte;
    *check(body)* returns the row count or raises on a wrong answer."""
    record = {"kind": "read", "q": query, "qid": qid}
    started = record["t0"] = perf_counter()
    try:
        status, body = client.request("POST", "/query",
                                      {"query": query}, qid)
        record["lat"] = perf_counter() - started
        record["status"] = status
        if status != 200:
            raise ValueError(f"HTTP {status}: {body[:200]!r}")
        record["rows"] = check(body)
        stats = _field(body, "stats")
        record["stats"] = {name: stats[name] for name in STAT_FIELDS}
        record["epoch"] = _field(body, "epoch")
        record["bytes"] = len(body)
        record["ok"] = True
    except Exception as error:  # a failed op is a measurement
        record.setdefault("lat", perf_counter() - started)
        record.update(ok=False, rows=0,
                      error=f"{type(error).__name__}: {error}")
    return record


def enum_check(answer_set: set[tuple], full: bool):
    """served-enum: the full answer set on *full* responses, otherwise
    the envelope count and the number of rows in the body."""
    expected = len(answer_set)

    def check(body: bytes) -> int:
        if full:
            answers = json.loads(body)["answers"]
            if ({tuple(row) for row in answers} != answer_set
                    or len(answers) != expected):
                raise ValueError("answers differ from the generated set")
        count = _field(body, "count")
        rows = len(_ROW.findall(body))
        if count != expected or rows != expected:
            raise ValueError(f"count {count}, {rows} rows; "
                             f"expected {expected}")
        return rows
    return check


def bound_check(key: str):
    def check(body: bytes) -> int:
        document = json.loads(body)
        answers = {tuple(row) for row in document["answers"]}
        if (answers != gen.bound_answers(key)
                or document["count"] != len(answers)):
            raise ValueError(f"wrong answers for {key}")
        return len(answers)
    return check


class Writer(threading.Thread):
    """served-rw's open-loop writer: one batch every 1/WRITE_RATE s
    until stopped, each timed from its scheduled time."""

    def __init__(self, port: int, seed: int) -> None:
        super().__init__(daemon=True)
        self.client = Client(port)
        self.batches = gen.write_batches(seed)
        self.stopped = threading.Event()
        self.records: list[dict] = []

    def run(self) -> None:
        start = perf_counter()
        last_epoch = 0
        for k in itertools.count():
            due = start + k / gen.WRITE_RATE
            if self.stopped.wait(max(0.0, due - perf_counter())):
                break
            record = {"kind": "write", "qid": f"write-{k}", "t0": due}
            record["lag"] = perf_counter() - due
            try:
                status, body = self.client.request(
                    "POST", "/facts", next(self.batches), record["qid"])
                record["lat"] = perf_counter() - due
                record["status"] = status
                epoch = json.loads(body).get("epoch") if status == 200 \
                    else None
                if status != 200 or not epoch > last_epoch:
                    raise ValueError(f"HTTP {status}, epoch {epoch} "
                                     f"after {last_epoch}")
                last_epoch = epoch
                record["ok"] = True
            except Exception as error:  # a failed op is a measurement
                record.setdefault("lat", perf_counter() - due)
                record.update(ok=False,
                              error=f"{type(error).__name__}: {error}")
            self.records.append(record)
        self.client.close()

    def due_since(self, start: float) -> int:
        """Writes scheduled at or after *start* and finished so far."""
        return sum(record["t0"] >= start for record in self.records[:])


def scrape(client: Client) -> dict[str, float]:
    """``repro_queries_total`` summed over its labels, and
    ``repro_epoch`` (absent until the first write: 0)."""
    status, body = client.request("GET", "/metrics")
    if status != 200:
        raise ValueError(f"/metrics: HTTP {status}")
    totals = {"repro_queries_total": 0.0, "repro_epoch": 0.0}
    for line in body.decode("utf-8").splitlines():
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name in totals:
            totals[name] += float(line.rsplit(" ", 1)[1])
    return totals


def run_pass(workload: str, seed: int, seconds: float, cold_starts: int,
             root: Path, env: dict, out: Path,
             spans_path: Path | None = None) -> dict:
    """Cold starts, warm-up and the measured window on one workload.

    Each cold start spawns a fresh server and times spawn -> first
    correct answer; the last one stays up for the warm-up and window.
    The bound-key stream is finite: when it runs out, the window ends
    there and the result says so (``stream_ended``).
    """
    if workload == "served-enum":
        program = out / "tc20k.dl"
        program.write_text(gen.tc_program(*gen.TC20K), encoding="utf-8")
        answers = gen.tc_answers(*gen.TC20K)
        turns = itertools.repeat([gen.ENUM_QUERY])

        def request(query: str, full: bool):
            return query, enum_check(answers, full)
    else:
        program = out / "tc5k.dl"
        program.write_text(gen.tc_program(*gen.TC5K), encoding="utf-8")
        turns = gen.bound_turns(seed)

        def request(key: str, full: bool):
            return gen.bound_query(key), bound_check(key)
    # the first turn's first op answers every set-up
    first_op = next(turns)[0]

    setups: list[float] = []
    for start in range(cold_starts):
        last = start == cold_starts - 1
        server = Server(root, env, program, out / "server.log",
                        spans_path if last else None)
        try:
            client = Client(server.port)
            first = read(client, *request(first_op, True), qid="setup")
            if not first["ok"]:
                raise RuntimeError(f"first answer: {first['error']}")
        except BaseException:
            server.stop()
            raise
        setups.append(first["t0"] + first["lat"] - server.spawned)
        if not last:
            client.close()
            server.stop()
    first["phase"] = "setup"
    ops = [first]
    window_reads = []

    def run_op(op: str, phase: str) -> None:
        # the first response after set-up is checked in full as well
        query, check = request(op, len(ops) == 1)
        record = read(client, query, check, f"{phase}-{len(ops)}")
        record["phase"] = phase
        ops.append(record)
        if phase == "window":
            window_reads.append(record)

    writer = None
    try:
        if workload == "served-rw":
            writer = Writer(server.port, seed)
            writer.start()
        ended = measure.closed_loop(
            turns, lambda op: run_op(op, "warmup"),
            perf_counter() + measure.WARMUP_S)
        window_start = perf_counter()

        def short() -> bool:
            # the traced pass reports shares of time, not percentiles
            return spans_path is None and (
                len(window_reads) < measure.MIN_P90_SAMPLES
                or (writer is not None and writer.due_since(
                    window_start) < measure.MIN_P90_SAMPLES))

        ended = ended and measure.closed_loop(
            turns, lambda op: run_op(op, "window"),
            window_start + seconds, measure.stretch(seconds), short)
        window_end = perf_counter()
        if writer is not None:
            writer.stopped.set()
            writer.join()
            for record in writer.records:
                record["phase"] = ("warmup" if record["t0"] < window_start
                                   else "window" if record["t0"] < window_end
                                   else "after")
            ops.extend(writer.records)
        rss = server.peak_rss_mb()
        counters = scrape(client)
        client.close()
    finally:
        if writer is not None:
            writer.stopped.set()
            writer.join()
        server.stop()
    return {"setups": setups, "ops": ops, "peak_rss_mb": rss,
            "counters": counters, "spawned": server.spawned,
            "stream_ended": not ended,
            "spans": (None if spans_path is None
                      else str(spans_path))}
