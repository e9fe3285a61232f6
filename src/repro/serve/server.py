"""The evaluation service: model registry, worker pool, HTTP server.

Three layers, separable for testing:

* :class:`ModelRegistry` — the models and datasets the service hosts, by
  name (wire requests reference names; :func:`ModelRegistry.from_context`
  trains the paper's learning methods on one test bench and registers the
  matching evaluation splits).
* :class:`EvalService` — the transport-free core: an
  :class:`~repro.serve.admission.AdmissionController` in front of a worker
  pool, each worker draining *batches* of admitted jobs through its own
  :class:`repro.api.Session` (``submit`` + one ``flush`` per batch), so
  same-fingerprint requests coalesce onto shared engine passes exactly as
  they do in-process.  All local sessions share one result store
  (:class:`~repro.api.ResultMemo`, with a disk tier under ``cache_dir``),
  so a repeated configuration is a hit regardless of which worker serves
  it.
  Responses are **bit-identical** to a direct ``Session.evaluate`` of the
  same request — the service adds queuing, never arithmetic.
* :class:`EvalServer` — the stdlib HTTP binding
  (:class:`~http.server.ThreadingHTTPServer` + the handler in
  :mod:`repro.serve.handlers`) exposing ``POST /v1/evaluate``,
  ``GET /v1/models``, ``GET /healthz``, and ``GET /metrics``.

Two durability/throughput upgrades sit behind :class:`ServeConfig` flags:

* ``worker_mode="process"`` moves evaluation out of the GIL: the worker
  pool becomes ``workers`` *dispatcher threads* feeding a spawn-context
  :class:`~concurrent.futures.ProcessPoolExecutor` whose children each own
  a :class:`~repro.api.Session` built from a pickled copy of the registry.
  Batches ship as normalized wire payloads (names, not objects), results
  come back as :class:`~repro.api.EvalResult` objects (numpy pickling is
  exact, so bit-identity survives the process hop).  The children run with
  no result store: the parent looks every job up in the replica's store
  before dispatch, answers hits without touching a worker, and stores
  every result that comes back — so each entry is written once.
* ``journal_path`` enables the append-only request journal
  (:mod:`repro.serve.journal`): every admitted deterministic request is
  fingerprinted to disk, and a restarted service replays the journal at
  boot through a warm session — filling the result store so a repeated
  burst after a restart is served from it, not recomputed.  With a
  ``cache_dir`` the warm-up itself reads the disk tier and costs no engine
  pass.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from http.server import ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import ResultMemo, Session, backend_names
from repro.api.protocol import EvalRequest
from repro.datasets.base import Dataset
from repro.serve.admission import (
    AdmissionController,
    Job,
    ServiceClosedError,
)
from repro.serve.codec import (
    UnknownDatasetError,
    UnknownModelError,
    decode_request,
    to_eval_request,
    wire_payload,
)
from repro.serve.controller import ControllerConfig
from repro.serve.handlers import ServeHandler
from repro.serve.journal import RequestJournal
from repro.utils.logging import get_logger

_LOG = get_logger(__name__)


def _log_suppressed(where: str) -> None:
    """Log the exception being handled at a site that survives it."""
    _LOG.exception("%s failed; the replica keeps serving", where)


#: Worker-pool implementations a service may run.
WORKER_MODES = ("thread", "process")


@dataclass
class ServeConfig:
    """Tunables of one service instance.

    Attributes:
        host / port: bind address; ``port=0`` asks the OS for an ephemeral
            port (the bound port is on :attr:`EvalServer.port`).
        backend: default backend for requests that do not name one
            (``"auto"`` selects by request capability, as in ``Session``).
        workers: worker threads (``worker_mode="thread"``) or worker
            processes (``worker_mode="process"``) draining the admission
            queue.
        worker_mode: ``"thread"`` drains batches on in-process sessions;
            ``"process"`` dispatches batches to a spawn-context process
            pool around the GIL (see the module docstring).
        queue_depth: *starting* bound on queued jobs; arrivals beyond the
            effective bound get 429.  With ``target_p95`` set the bound
            adapts each control tick.
        target_p95: p95 latency target in seconds for the adaptive
            admission controller; ``None`` keeps the static bound.
        controller_config: full controller tunables; overrides
            ``target_p95`` when given.
        batch_max: most jobs one worker claims per drain — the coalescing
            window.
        request_timeout: seconds an HTTP handler waits for its job before
            answering 504 (the job itself is not cancelled).
        cache_dir / cache_max_bytes: disk tier of the replica's result
            store and its size bound (see :class:`repro.api.ResultMemo`);
            ``None`` keeps results in memory only.
        journal_path: append-only request-journal file; ``None`` disables
            journaling (and boot-time warm replay).
        memo_entries: in-memory capacity of the replica's result store.
    """

    host: str = "127.0.0.1"
    port: int = 8000
    backend: str = "auto"
    workers: int = 2
    worker_mode: str = "thread"
    queue_depth: int = 64
    target_p95: Optional[float] = None
    controller_config: Optional[ControllerConfig] = None
    batch_max: int = 8
    request_timeout: float = 300.0
    cache_dir: Optional[str] = None
    cache_max_bytes: Optional[int] = None
    journal_path: Optional[str] = None
    memo_entries: int = 256

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.worker_mode not in WORKER_MODES:
            raise ValueError(
                f"worker_mode must be one of {WORKER_MODES}, "
                f"got {self.worker_mode!r}"
            )
        if self.batch_max <= 0:
            raise ValueError(f"batch_max must be positive, got {self.batch_max}")
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )
        if self.target_p95 is not None and self.target_p95 <= 0:
            raise ValueError(
                f"target_p95 must be positive, got {self.target_p95}"
            )
        if self.memo_entries <= 0:
            raise ValueError(
                f"memo_entries must be positive, got {self.memo_entries}"
            )

    def resolved_controller_config(self) -> Optional[ControllerConfig]:
        """The controller tunables this config asks for (``None`` = static)."""
        if self.controller_config is not None:
            return self.controller_config
        if self.target_p95 is not None:
            return ControllerConfig(target_p95=self.target_p95)
        return None


class ModelRegistry:
    """Named models and datasets a service instance hosts."""

    def __init__(self) -> None:
        self._models: Dict[str, Tuple[object, Dict[str, object]]] = {}
        self._datasets: Dict[str, Dataset] = {}

    # ------------------------------------------------------------------
    def add_model(self, name: str, model, **metadata) -> None:
        """Host ``model`` under ``name`` (metadata shows up in /v1/models)."""
        if not name or not isinstance(name, str):
            raise ValueError(f"model name must be a non-empty string, got {name!r}")
        self._models[name] = (model, dict(metadata))

    def add_dataset(self, name: str, dataset: Dataset) -> None:
        """Host ``dataset`` under ``name``."""
        if not name or not isinstance(name, str):
            raise ValueError(f"dataset name must be a non-empty string, got {name!r}")
        self._datasets[name] = dataset

    def model(self, name: str):
        """The hosted model called ``name``."""
        try:
            return self._models[name][0]
        except KeyError:
            raise UnknownModelError(
                f"unknown model {name!r}; hosted: {sorted(self._models)}"
            ) from None

    def dataset(self, name: str) -> Dataset:
        """The hosted dataset called ``name``."""
        try:
            return self._datasets[name]
        except KeyError:
            raise UnknownDatasetError(
                f"unknown dataset {name!r}; hosted: {sorted(self._datasets)}"
            ) from None

    def describe(self) -> Dict[str, object]:
        """The ``GET /v1/models`` payload."""
        return {
            "models": [
                {"name": name, **metadata}
                for name, (_, metadata) in sorted(self._models.items())
            ],
            "datasets": [
                {
                    "name": name,
                    "samples": dataset.sample_count,
                    "features": dataset.feature_count,
                    "classes": dataset.num_classes,
                }
                for name, dataset in sorted(self._datasets.items())
            ],
            "backends": list(backend_names()),
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_context(
        cls, context, methods: Sequence[str] = ("tea", "biased")
    ) -> "ModelRegistry":
        """Train ``methods`` on an ExperimentContext and host the results.

        Hosts the capped evaluation split as ``"test"`` (the default wire
        dataset) and the full test split as ``"test-full"``.  Training
        happens here, at boot — never on the request path.
        """
        registry = cls()
        for method in methods:
            result = context.result(method)
            architecture = context.architecture()
            registry.add_model(
                method,
                result.model,
                method=method,
                testbench=context.testbench,
                input_dim=architecture.input_dim,
                num_classes=architecture.num_classes,
                cores_per_network=architecture.cores_per_network,
            )
        registry.add_dataset("test", context.evaluation_dataset())
        registry.add_dataset("test-full", context.splits().test)
        return registry


# ----------------------------------------------------------------------
# process-worker plumbing (module level: spawn children must import it)
# ----------------------------------------------------------------------
#: per-child session + registry, built once by the pool initializer.
_WORKER_SESSION: Optional[Session] = None
_WORKER_REGISTRY: Optional[ModelRegistry] = None


def _process_worker_init(registry: ModelRegistry, backend: str) -> None:
    """Build one worker child's session from a pickled registry copy.

    The child's session has no result store: the dispatching parent looks
    every job up before shipping it and stores every result that returns.
    """
    global _WORKER_SESSION, _WORKER_REGISTRY
    _WORKER_REGISTRY = registry
    _WORKER_SESSION = Session(backend=backend)


def _picklable_error(error: BaseException) -> BaseException:
    """``error`` itself when it pickles, else a ``RuntimeError`` stand-in.

    Typed protocol errors (``UnsupportedRequestError``, ``CodecError``,
    ...) pickle fine and keep their HTTP status mapping across the process
    hop; anything carrying unpicklable baggage degrades to a string-only
    ``RuntimeError`` (a 500) instead of poisoning the whole batch.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def _process_worker_run(
    items: List[Tuple[object, ...]],
) -> Tuple[List[Tuple[str, object]], int, Dict[str, object], int]:
    """Serve one claimed batch inside a worker child.

    ``items`` entries are ``("wire", payload)`` — a normalized wire dict
    resolved against the child's registry — or ``("request", request,
    backend)`` for in-process jobs that never had a wire form.  Returns
    per-item ``("ok", result)`` / ``("error", exception)`` outcomes in
    order, plus the child's pid and cumulative session stats so the parent
    can aggregate ``/metrics`` without another round-trip, and the number
    of errors the child logged and survived while serving the batch.
    """
    session = _WORKER_SESSION
    registry = _WORKER_REGISTRY
    assert session is not None and registry is not None
    handles: List[object] = []
    for item in items:
        try:
            if item[0] == "wire":
                wire = decode_request(item[1])
                request = to_eval_request(wire, registry)
                handles.append(session.submit(request, backend=wire.backend))
            else:
                handles.append(session.submit(item[1], backend=item[2]))
        except Exception as error:
            handles.append(_picklable_error(error))
    suppressed = 0
    try:
        session.flush()
    except Exception:
        _log_suppressed("worker-process session flush")
        suppressed += 1
    outcomes: List[Tuple[str, object]] = []
    for handle in handles:
        if isinstance(handle, BaseException):
            outcomes.append(("error", handle))
            continue
        try:
            outcomes.append(("ok", handle.result()))
        except Exception as error:
            outcomes.append(("error", _picklable_error(error)))
    return outcomes, os.getpid(), session.stats(), suppressed


class EvalService:
    """Transport-free service core: admission queue + coalescing workers."""

    def __init__(
        self, registry: ModelRegistry, config: Optional[ServeConfig] = None
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.admission = AdmissionController(
            max_depth=self.config.queue_depth,
            workers=self.config.workers,
            controller_config=self.config.resolved_controller_config(),
        )
        #: the replica's one result store, shared by the local sessions
        #: (thread workers and the warm/dispatch session).
        self.result_memo = ResultMemo(
            max_entries=self.config.memo_entries,
            cache_dir=self.config.cache_dir,
            max_bytes=self.config.cache_max_bytes,
        )
        self.journal = (
            RequestJournal(self.config.journal_path)
            if self.config.journal_path is not None
            else None
        )
        self._sessions: List[Session] = []
        self._threads: List[threading.Thread] = []
        self._executor: Optional[ProcessPoolExecutor] = None
        #: warm-replay + process-mode dispatch session (set by start()).
        self._local_session: Optional[Session] = None
        self._journal_warmed = 0
        self._journal_compacted = 0
        self._worker_stats: Dict[int, Dict[str, object]] = {}  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        self._http_counts: Dict[str, int] = {}  # guarded-by: _http_lock
        self._http_lock = threading.Lock()
        #: errors logged and survived (a journal record that fails to warm,
        #: a flush or memo fault, an unreadable session stat).
        self._suppressed_errors = 0  # guarded-by: _stats_lock
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EvalService":
        """Warm from the journal, then start the worker pool (idempotent)."""
        if self._started:
            return self
        self._started = True
        self._local_session = self._make_session()
        self._sessions.append(self._local_session)
        self._journal_warmed = self._warm_from_journal()
        if self.journal is not None:
            # Boot is the one moment the whole journal was just read and no
            # appender is active yet: rewrite it down to unique fingerprints
            # so the file tracks distinct requests, not total traffic.
            self._journal_compacted = self.journal.compact()
        if self.config.worker_mode == "process" and self.config.workers > 0:
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=multiprocessing.get_context("spawn"),
                initializer=_process_worker_init,
                initargs=(self.registry, self.config.backend),
            )
        for index in range(self.config.workers):
            if self.config.worker_mode == "process":
                thread = threading.Thread(
                    target=self._dispatch_loop,
                    name=f"repro-serve-dispatch-{index}",
                    daemon=True,
                )
            else:
                session = self._make_session()
                self._sessions.append(session)
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(session,),
                    name=f"repro-serve-worker-{index}",
                    daemon=True,
                )
            self._threads.append(thread)
            thread.start()
        return self

    def _record_suppressed(self, where: str) -> None:
        """Log the exception being handled and count it under ``/metrics``."""
        _log_suppressed(where)
        with self._stats_lock:
            self._suppressed_errors += 1

    def _make_session(self) -> Session:
        return Session(backend=self.config.backend, result_memo=self.result_memo)

    def _warm_from_journal(self) -> int:
        """Replay journaled requests through the local session at boot.

        Fills the result store so a restarted server answers a repeated
        burst from it (with a disk tier, the replay itself is served from
        disk).  Best-effort by design: a record naming a model this boot
        does not host, or failing evaluation, is skipped — warming must
        never keep a server from starting.
        """
        if self.journal is None:
            return 0
        session = self._local_session
        assert session is not None
        handles = []
        for payload in self.journal.replay():
            try:
                wire = decode_request(payload)
                request = to_eval_request(wire, self.registry)
                handles.append(session.submit(request, backend=wire.backend))
            except Exception:
                self._record_suppressed("journal warm: resolving a record")
        try:
            session.flush()
        except Exception:
            self._record_suppressed("journal warm: session flush")
        warmed = 0
        for handle in handles:
            try:
                handle.result()
                warmed += 1
            except Exception:
                self._record_suppressed("journal warm: evaluating a record")
        return warmed

    def close(self) -> None:
        """Stop admitting, fail still-queued jobs, join the workers."""
        for job in self.admission.close():
            job.fail(ServiceClosedError("service shut down before the job ran"))
            self.admission.job_done(job, ok=False)
        for thread in self._threads:
            thread.join(timeout=30.0)
        self._threads = []
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def enqueue(self, payload: object) -> Job:
        """Validate, resolve, and admit one wire payload.

        Raises the typed protocol errors (:class:`CodecError`,
        :class:`UnknownModelError`, :class:`UnknownDatasetError`,
        :class:`QueueFullError`, :class:`ServiceClosedError`) for the
        transport to map onto HTTP statuses.
        """
        wire = decode_request(payload)
        request = to_eval_request(wire, self.registry)
        normalized = wire_payload(wire)
        job = self.admission.submit(
            Job(request=request, backend=wire.backend, wire=normalized)
        )
        # Journal *admitted* deterministic requests only: shed arrivals are
        # not service state, and seed=None requests are fresh entropy that
        # no cache may ever serve, so replaying them would only burn boot
        # time recomputing results nobody can be answered with.
        if self.journal is not None and wire.seed is not None:
            self.journal.record(normalized)
        return job

    def evaluate_request(self, request: EvalRequest, backend: Optional[str] = None):
        """Admit an in-process :class:`EvalRequest` and wait for its result.

        The examples use this to show queue semantics without HTTP; it goes
        through the same admission + worker path as wire requests.
        """
        job = self.admission.submit(Job(request=request, backend=backend))
        job.done.wait()
        if job.error is not None:
            raise job.error
        return job.result

    def _worker_loop(self, session: Session) -> None:
        admission = self.admission
        while True:
            batch = admission.next_batch(self.config.batch_max, timeout=0.2)
            if not batch:
                if admission.closed:
                    return
                continue
            handles = []
            for job in batch:
                try:
                    handles.append(
                        (job, session.submit(job.request, backend=job.backend))
                    )
                except Exception as error:
                    job.fail(error)
                    admission.job_done(job, ok=False)
            # flush() resolves failures per handle and is not expected to
            # raise; the guard keeps a surprise from killing the worker.
            # Handles it did serve before failing still deliver below, and
            # unserved ones surface a per-job error via handle.result() —
            # a claimed batch never strands its clients.
            try:
                session.flush()
            except Exception:
                self._record_suppressed("worker session flush")
            for job, handle in handles:
                try:
                    job.resolve(handle.result())
                    admission.job_done(job, ok=True)
                except Exception as error:
                    job.fail(error)
                    admission.job_done(job, ok=False)

    def _dispatch_loop(self) -> None:
        """Process-mode worker: claim batches, ship them to the pool.

        Repeated deterministic requests are answered from the parent-side
        result memo without a process hop; everything else ships to a
        worker child as normalized wire payloads (or the request object
        itself for in-process jobs), and the results warm the memo on the
        way back.  Runs until the admission queue closes and drains.
        """
        admission = self.admission
        session = self._local_session
        executor = self._executor
        assert session is not None and executor is not None
        while True:
            batch = admission.next_batch(self.config.batch_max, timeout=0.2)
            if not batch:
                if admission.closed:
                    return
                continue
            remaining: List[Job] = []
            for job in batch:
                try:
                    memoized = session.cached_result(
                        job.request, backend=job.backend
                    )
                except Exception:
                    self._record_suppressed("result memo lookup")
                    memoized = None
                if memoized is not None:
                    job.resolve(memoized)
                    admission.job_done(job, ok=True)
                else:
                    remaining.append(job)
            if not remaining:
                continue
            items: List[Tuple[object, ...]] = [
                ("wire", job.wire)
                if job.wire is not None
                else ("request", job.request, job.backend)
                for job in remaining
            ]
            try:
                outcomes, pid, stats, suppressed = executor.submit(
                    _process_worker_run, items
                ).result()
            except Exception as error:
                for job in remaining:
                    job.fail(error)
                    admission.job_done(job, ok=False)
                continue
            with self._stats_lock:
                self._worker_stats[pid] = stats
                # Logged by the child, which owns the traceback.
                self._suppressed_errors += suppressed
            for job, outcome in zip(remaining, outcomes):
                if outcome[0] == "ok":
                    result = outcome[1]
                    try:
                        session.memoize_result(
                            job.request, result, backend=job.backend
                        )
                    except Exception:
                        self._record_suppressed("result memo store")
                    job.resolve(result)
                    admission.job_done(job, ok=True)
                else:
                    error = outcome[1]
                    job.fail(
                        error
                        if isinstance(error, BaseException)
                        else RuntimeError(str(error))
                    )
                    admission.job_done(job, ok=False)

    # ------------------------------------------------------------------
    # introspection endpoints
    # ------------------------------------------------------------------
    def record_http(self, route: str, status: int) -> None:
        """Count one HTTP response for the /metrics request table."""
        key = f"{route} {status}"
        with self._http_lock:
            self._http_counts[key] = self._http_counts.get(key, 0) + 1

    def health(self) -> Dict[str, object]:
        snapshot = self.admission.snapshot()
        return {
            "status": "shutting-down" if self.admission.closed else "ok",
            "workers": self.config.workers,
            "queue_depth": snapshot["queue_depth"],
            "in_flight": snapshot["in_flight"],
        }

    def models(self) -> Dict[str, object]:
        return self.registry.describe()

    def metrics(self) -> Dict[str, object]:
        """Queue counters, latency percentiles, session and result-store stats.

        The ``requests`` block satisfies two conservation invariants the CI
        smoke asserts: ``received == admitted + rejected`` and
        ``admitted == completed + failed + in_flight``.
        ``suppressed_errors`` counts the errors the replica logged and
        survived (journal warm-up, session flushes, the result memo, an
        unreadable session stat), worker children included.
        """
        session_totals = {
            "submitted": 0,
            "flushes": 0,
            "engine_passes": 0,
            "coalesced_requests": 0,
        }
        for session in self._sessions:
            try:
                snapshot = session.stats()
            except Exception:
                # One unreadable session must not take /metrics down with it.
                self._record_suppressed("session stats")
                continue
            for key in session_totals:
                session_totals[key] += snapshot[key]
        # Process workers report their cumulative session stats with every
        # served batch; fold the latest snapshot per child in (the counters
        # live in other processes, so they arrive by value).
        with self._stats_lock:
            worker_stats = list(self._worker_stats.values())
        for snapshot in worker_stats:
            for key in session_totals:
                session_totals[key] += int(snapshot.get(key, 0))
        with self._http_lock:
            http_counts = dict(sorted(self._http_counts.items()))
        with self._stats_lock:
            suppressed_errors = self._suppressed_errors
        journal_view: Optional[Dict[str, object]] = None
        if self.journal is not None:
            journal_view = self.journal.snapshot()
            journal_view["warmed_at_boot"] = self._journal_warmed
            journal_view["compacted_at_boot"] = self._journal_compacted
        return {
            "requests": self.admission.snapshot(),
            "controller": self.admission.controller.snapshot(),
            "drain": self.admission.drain_snapshot(),
            "sessions": session_totals,
            "memo": self.result_memo.snapshot(),
            "journal": journal_view,
            "worker_mode": self.config.worker_mode,
            "http": http_counts,
            "suppressed_errors": suppressed_errors,
        }


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that carries the service for its handlers."""

    daemon_threads = True
    allow_reuse_address = True
    # The stdlib default listen backlog of 5 RSTs connections under a
    # concurrent burst; admission control, not the kernel, sheds load here.
    request_queue_size = 128

    def __init__(self, address: Tuple[str, int], service: EvalService) -> None:
        super().__init__(address, ServeHandler)
        self.service = service


class EvalServer:
    """HTTP front end over one :class:`EvalService`.

    Usable as a context manager (the tests and the smoke benchmark boot it
    on an ephemeral port)::

        with EvalServer(registry, ServeConfig(port=0)) as server:
            client = ServeClient(port=server.port)
            result = client.evaluate(model="tea", copy_levels=[1, 2])
    """

    def __init__(
        self, registry: ModelRegistry, config: Optional[ServeConfig] = None
    ) -> None:
        self.config = config or ServeConfig()
        self.service = EvalService(registry, self.config)
        self._httpd: Optional[_ServeHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (the OS choice when configured with ``port=0``)."""
        if self._httpd is None:
            raise RuntimeError("server is not started")
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def start(self) -> "EvalServer":
        """Bind the socket and start the worker pool + acceptor thread."""
        if self._httpd is not None:
            return self
        self.service.start()
        self._httpd = _ServeHTTPServer(
            (self.config.host, self.config.port), self.service
        )
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Drain: stop admissions, resolve queued jobs, stop the acceptor."""
        self.service.close()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "EvalServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
