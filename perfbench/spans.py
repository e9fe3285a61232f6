"""Spans around the calls into each layer of the serve tier.

The traced run times the program from the benchmark's own files: the
functions named in :data:`SERVER_HOOKS` and :data:`FRONT_HOOKS` are wrapped
in the server processes (see ``launch.py``), and :data:`CLIENT_HOOKS` in
the load generator.  Nothing under ``src/`` knows
about the tracing.

A request is traced when it carries the :data:`HEADER` trace id.  The load
generator sets it; the front copies it onto the request it proxies; the
replica's handler thread tags the ``Job`` it admits with it, and a worker
thread that claims the job attributes every span it records until its next
claim to the ids of the batch it claimed.  Untraced requests pass through the
wrappers untimed, so one set of server processes serves an untraced and a
traced window and the difference between the two is the tracing overhead.

A span is ``(name, ids, start, end, n)``: ``ids`` are the trace ids of the
requests the work served, ``start``/``end`` read ``time.monotonic`` (the
clock ``Job.created`` uses), ``n`` is a count the boundary reports (input
ticks of a chip pass, jobs of a flush; 1 elsewhere).  Spans stay in memory
and are written out when the process ends.
"""

from __future__ import annotations

import functools
import http.client
import importlib
import json
import statistics
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

HEADER = "X-Perfbench-Trace"

Span = Tuple[str, Tuple[str, ...], float, float, int]


def _ticks(engine, copies, layout, spike_volumes, *args, **kwargs) -> int:
    """Input ticks of one chip or board pass: the ticks axis of its
    ``(..., batch, ticks, features)`` spike volume."""
    return int(spike_volumes.shape[-2])


#: (module, attribute path, span name, kind[, count]) for a replica.  Module
#: attributes are wrapped in the module that *calls* them, because the
#: callers import them by name.
SERVER_HOOKS: Tuple[Tuple, ...] = (
    ("repro.serve.handlers", "ServeHandler.do_POST", "serve.request", "entry"),
    ("repro.serve.server", "EvalService.enqueue", "serve.enqueue", "timed"),
    ("repro.serve.admission", "AdmissionController.submit", "", "tag"),
    ("repro.serve.handlers", "encode_result", "codec.encode_result", "timed"),
    ("repro.serve.admission", "AdmissionController.next_batch", "admission.wait", "claim"),
    ("repro.api.session", "Session.flush", "session.flush", "flush"),
    ("repro.api.backends", "VectorizedBackend.evaluate", "backend.vectorized", "timed"),
    ("repro.api.backends", "ChipBackend.evaluate", "backend.chip", "timed"),
    ("repro.api.backends", "BoardBackend.evaluate", "backend.board", "timed"),
    ("repro.api.backends", "deploy_with_copies", "deploy", "timed"),
    ("repro.eval.runner", "deploy_with_copies", "deploy", "timed"),
    ("repro.mapping.deploy", "sample_connectivity", "deploy.sample_connectivity", "timed"),
    ("repro.encoding.stochastic", "StochasticEncoder.encode", "encode", "timed"),
    ("repro.encoding.stochastic", "StochasticEncoder.iter_encoded", "encode", "chunks"),
    ("repro.eval.engine", "VectorizedEvaluator.class_scores", "engine.class_scores", "timed"),
    ("repro.api.backends", "program_chip_multicopy", "chip.program", "timed"),
    ("repro.api.backends", "run_chip_inference_multicopy", "chip.run", "timed", _ticks),
    ("repro.api.backends", "program_board_multicopy", "board.program", "timed"),
    ("repro.api.backends", "run_board_inference_multicopy", "board.run", "timed", _ticks),
)

#: The front router: its handler, and the proxy call that must carry the id.
FRONT_HOOKS: Tuple[Tuple, ...] = (
    ("repro.serve.handlers", "FrontHandler.do_POST", "front.request", "entry"),
    ("http.client", "HTTPConnection.request", "", "propagate"),
)

#: The load generator: result decoding, and the id on the outgoing request.
CLIENT_HOOKS: Tuple[Tuple, ...] = (
    ("repro.serve.client", "decode_result", "client.decode", "timed"),
    ("http.client", "HTTPConnection.request", "", "propagate"),
)


class Recorder:
    """Spans of traced requests in one process, plus the thread context."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.local = threading.local()
        #: hooks whose target the program no longer has (reported, skipped).
        self.missing: List[str] = []

    def ids(self) -> Optional[Tuple[str, ...]]:
        return getattr(self.local, "ids", None)

    def record(
        self, name: str, ids: Tuple[str, ...], start: float, end: float, n: int = 1
    ) -> None:
        self.spans.append((name, ids, start, end, n))  # list.append is atomic

    # ------------------------------------------------------------------
    # wrappers, one per kind of boundary
    # ------------------------------------------------------------------
    def timed(self, name: str, fn: Callable, count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ids = self.ids()
            if not ids:
                return fn(*args, **kwargs)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                n = count(*args, **kwargs) if count is not None else 1
                self.record(name, ids, start, time.monotonic(), n)

        return wrapper

    def chunks(self, name: str, fn: Callable) -> Callable:
        """Time each chunk a generator yields (not the consumer's work)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            produced = iter(fn(*args, **kwargs))
            while True:
                ids = self.ids()
                start = time.monotonic()
                try:
                    chunk = next(produced)
                except StopIteration:
                    return
                if ids:
                    self.record(name, ids, start, time.monotonic())
                yield chunk

        return wrapper

    def entry(self, name: str, fn: Callable) -> Callable:
        """An HTTP handler's ``do_POST``: adopt the request's trace id."""

        @functools.wraps(fn)
        def do_POST(handler):
            trace_id = handler.headers.get(HEADER)
            if trace_id is None:
                return fn(handler)
            ids = (trace_id,)
            self.local.ids = ids
            start = time.monotonic()
            try:
                return fn(handler)
            finally:
                self.record(name, ids, start, time.monotonic())
                self.local.ids = None

        return do_POST

    def tag(self, name: str, fn: Callable) -> Callable:
        """``AdmissionController.submit``: tag the job before it is queued,
        so the worker that claims it already sees the request's id."""

        @functools.wraps(fn)
        def submit(admission, job, *args, **kwargs):
            ids = self.ids()
            if ids:
                job.trace_ids = ids
            return fn(admission, job, *args, **kwargs)

        return submit

    def claim(self, name: str, fn: Callable) -> Callable:
        """``next_batch``: queue wait per job; the batch becomes the context."""

        @functools.wraps(fn)
        def next_batch(admission, *args, **kwargs):
            batch = fn(admission, *args, **kwargs)
            claimed = time.monotonic()
            ids: List[str] = []
            for job in batch:
                for trace_id in getattr(job, "trace_ids", ()):
                    self.record(name, (trace_id,), job.created, claimed)
                    ids.append(trace_id)
            self.local.ids = tuple(ids) or None
            self.local.jobs = len(batch)
            return batch

        return next_batch

    def flush(self, name: str, fn: Callable) -> Callable:
        return self.timed(name, fn, count=lambda *a, **k: getattr(self.local, "jobs", 0))

    def propagate(self, name: str, fn: Callable) -> Callable:
        """``HTTPConnection.request``: carry the thread's trace id onward."""

        @functools.wraps(fn)
        def request(connection, method, url, body=None, headers=None, **kwargs):
            ids = self.ids()
            headers = dict(headers or {})
            if ids:
                headers[HEADER] = ids[0]
            return fn(connection, method, url, body=body, headers=headers, **kwargs)

        return request

    # ------------------------------------------------------------------
    def install(self, hooks: Iterable[Tuple]) -> "Recorder":
        """Wrap every hook target that exists; note the ones that do not."""
        for module_name, path, name, kind, *count in hooks:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            make = getattr(self, kind)
            setattr(owner, attribute, make(name, original, *count))
        return self

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "missing": self.missing}, handle)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: per-request span totals in milliseconds: metric -> span name.
TIMES = {
    "client.decode_ms": "client.decode",
    "front.request_ms": "front.request",
    "serve.request_ms": "serve.request",
    "serve.enqueue_ms": "serve.enqueue",
    "codec.encode_result_ms": "codec.encode_result",
    "admission.wait_ms": "admission.wait",
    "session.flush_ms": "session.flush",
    "backend.vectorized_ms": "backend.vectorized",
    "backend.chip_ms": "backend.chip",
    "backend.board_ms": "backend.board",
    "deploy.ms": "deploy",
    "encode.ms": "encode",
    "engine.class_scores_ms": "engine.class_scores",
    "chip.program_ms": "chip.program",
    "chip.run_ms": "chip.run",
    "board.program_ms": "board.program",
    "board.run_ms": "board.run",
}

#: per-request counts: metric -> (span name, "calls" or "n" to sum).
COUNTS = {
    "deploy.calls_per_request": ("deploy", "calls"),
    "deploy.sample_connectivity_per_request": ("deploy.sample_connectivity", "calls"),
    "chip.passes_per_request": ("chip.run", "calls"),
    "chip.input_ticks_per_request": ("chip.run", "n"),
    "board.passes_per_request": ("board.run", "calls"),
}


class _Cell:
    __slots__ = ("seconds", "calls", "n", "first", "last")

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0
        self.n = 0
        self.first = float("inf")
        self.last = float("-inf")


def _by_request(spans: Iterable[Sequence]) -> Dict[str, Dict[str, _Cell]]:
    table: Dict[str, Dict[str, _Cell]] = defaultdict(lambda: defaultdict(_Cell))
    for name, ids, start, end, n in spans:
        for trace_id in ids:
            cell = table[trace_id][name]
            cell.seconds += end - start
            cell.calls += 1
            cell.n += n
            cell.first = min(cell.first, start)
            cell.last = max(cell.last, end)
    return table


def _median(values: List[float]) -> Tuple[float, int]:
    return (statistics.median(values) if values else 0.0), len(values)


def layer_metrics(
    spans: List[Sequence], latencies: Dict[str, float]
) -> Dict[str, Tuple[float, int]]:
    """Per-layer ``metric -> (value, samples)`` over the traced requests.

    ``latencies`` maps each traced request's id to its client latency in
    seconds.  A timing or count is the median over the requests whose path
    reached that layer (``samples`` of them); a layer no request reached
    reads 0 with 0 samples.  Worker-side spans count in full for every job
    of the batch they served (``session.jobs_per_flush`` shows batching).
    """
    table = _by_request(spans)
    traced = [trace_id for trace_id in latencies if trace_id in table]
    metrics: Dict[str, Tuple[float, int]] = {}
    for metric, name in TIMES.items():
        metrics[metric] = _median(
            [table[t][name].seconds * 1e3 for t in traced if name in table[t]]
        )
    for metric, (name, field) in COUNTS.items():
        metrics[metric] = _median(
            [getattr(table[t][name], field) for t in traced if name in table[t]]
        )
    front_self, respond_self, residual = [], [], []
    for t in traced:
        row = table[t]
        serve = row.get("serve.request")
        front = row.get("front.request")
        if front is not None and serve is not None:
            front_self.append((front.seconds - serve.seconds) * 1e3)
        enqueue, encode = row.get("serve.enqueue"), row.get("codec.encode_result")
        if serve is not None and enqueue is not None and encode is not None:
            # Outside enqueue, the job wait and the encode: body read and
            # parse before enqueue, response dumps and write after encode.
            respond_self.append(
                ((enqueue.first - serve.first) + (serve.last - encode.last)) * 1e3
            )
        outermost = front if front is not None else serve
        decode = row.get("client.decode")
        if outermost is not None and decode is not None:
            residual.append(
                (latencies[t] - decode.seconds - outermost.seconds) * 1e3
            )
    metrics["front.self_ms"] = _median(front_self)
    metrics["serve.respond_self_ms"] = _median(respond_self)
    metrics["client.residual_ms"] = _median(residual)
    flushes = [span for span in spans if span[0] == "session.flush"]
    metrics["session.jobs_per_flush"] = (
        (sum(span[4] for span in flushes) / len(flushes)) if flushes else 0.0,
        len(flushes),
    )
    return metrics


def response_bytes_counter() -> threading.local:
    """Count the bytes of HTTP response bodies read on each thread.

    The load generator reads ``counter.received`` around each request to
    report the wire size of the answers it got.
    """
    counter = threading.local()
    read = http.client.HTTPResponse.read

    @functools.wraps(read)
    def counted(response, amt=None):
        data = read(response, amt)
        counter.received = getattr(counter, "received", 0) + len(data)
        return data

    http.client.HTTPResponse.read = counted
    return counter
