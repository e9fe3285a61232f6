"""The serving facade: backend selection, the result store, coalescing.

:class:`Session` is the one object experiment drivers, examples, and the
service front end talk to.  It owns

* **backend selection** — explicit (``Session(backend="chip")``) or by
  capability (``backend="auto"``: requests using a chip-only feature go to
  the cycle-accurate backend, everything else to the vectorized engine).
  A request the selected backend cannot serve raises
  :class:`~repro.api.protocol.UnsupportedRequestError` — never a silent
  fallback to a different backend.
* **request batching** — :meth:`submit` queues requests;
  :meth:`flush` groups queued requests that share one *coalescing key*
  (backend, model fingerprint, dataset fingerprint, seed, repeats,
  encoder, and the grid maxima) and serves each group with **one** engine
  pass over the union of the requested levels, slicing every request's
  sub-grid out of the shared cumulative tensors.
* **the result store** — an optional :class:`~repro.api.memo.ResultMemo`
  (``result_memo=``) that keeps whole results under the coalescing key, in
  memory and optionally on disk.  A bare session stores nothing and
  re-evaluates every request; sessions that want to share results share
  one memo (the serving layer does).

Coalescing never changes results: a request's scores are defined by the
evaluation at its own ``(max(copy_levels), max(spf_levels))`` — every
smaller level is a nested prefix of that pass — so only requests with
identical maxima share a pass, and the sliced results are bit-identical to
evaluating each request alone (the property tests assert it).  Requests
with ``seed=None`` ask for fresh entropy and are therefore never coalesced
(each must be an independent random sample) and never stored.

The result store extends the same determinism argument across flushes: a
stored union result that covers a later request's levels answers it
without an engine pass.  It serves only backends whose capabilities declare
``cacheable`` (vectorized, chip and board) — the reference loop always
recomputes, which is its whole point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, cast

import numpy as np

from repro.api.backends import backend_names, create_backend
from repro.api.memo import ResultMemo
from repro.api.protocol import (
    BackendCapabilities,
    EvalRequest,
    EvalResult,
    EvaluationBackend,
)
from repro.eval.runner import dataset_fingerprint, model_fingerprint

#: Sentinel for capability-based backend selection.
AUTO = "auto"


@dataclass
class PendingEvaluation:
    """Handle for a queued request; resolved by :meth:`Session.flush`."""

    request: EvalRequest
    backend_name: str
    _session: "Session" = field(repr=False)
    _result: Optional[EvalResult] = field(default=None, repr=False)
    _error: Optional[BaseException] = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """Whether the request has been served (or failed)."""
        return self._result is not None or self._error is not None

    def result(self) -> EvalResult:
        """The evaluation result, flushing the session's queue if needed.

        A request that failed (e.g. with
        :class:`~repro.api.protocol.UnsupportedRequestError`) re-raises its
        error here; failures never abort the other requests of a flush.
        """
        if not self.done:
            self._session.flush()
        if self._error is not None:
            raise self._error
        if self._result is None:
            raise RuntimeError("request was never served (flush did not reach it)")
        return self._result


@dataclass
class SessionStats:
    """Counters of what a session actually did.

    ``engine_passes`` counts evaluation passes the backends actually
    computed — requests served from the result store are excluded.
    ``coalesced_requests`` counts requests served by slicing another
    request's engine pass instead of running their own.

    The instance doubles as the session's stats *hook*: calling it
    (``session.stats()``) returns a plain-dict snapshot of the counters —
    the shape the serving layer's ``/metrics`` endpoint publishes.
    """

    submitted: int = 0
    flushes: int = 0
    engine_passes: int = 0
    coalesced_requests: int = 0

    def __call__(self) -> Dict[str, object]:
        """Plain-dict snapshot of the counters."""
        return {
            "submitted": self.submitted,
            "flushes": self.flushes,
            "engine_passes": self.engine_passes,
            "coalesced_requests": self.coalesced_requests,
        }


class Session:
    """Unified front end over the registered evaluation backends.

    Args:
        backend: default backend name for :meth:`evaluate` / :meth:`submit`
            (``"vectorized"``, ``"reference"``, ``"chip"``, ``"board"``, or
            ``"auto"`` to select by request capability).
        workers: fan independent passes over N processes (vectorized:
            per-repeat passes; chip: the per-spf-level passes of
            stochastic-synapse grids).
        result_memo: result store consulted (and filled) by :meth:`flush`
            for deterministic requests on every ``cacheable`` backend;
            give it a ``cache_dir`` to persist results across processes and
            restarts, and share one :class:`ResultMemo` across sessions to
            share served results (the serving layer does).  ``None`` (the
            default) stores nothing: a bare session re-evaluates every
            request.
    """

    def __init__(
        self,
        backend: str = AUTO,
        workers: Optional[int] = None,
        result_memo: Optional[ResultMemo] = None,
    ):
        if backend != AUTO and backend not in backend_names():
            raise KeyError(
                f"unknown evaluation backend {backend!r}; registered: "
                f"{backend_names()} (or 'auto')"
            )
        self.default_backend = backend
        self.workers = workers
        self.result_memo = result_memo
        self.stats = SessionStats()
        self._backends: Dict[str, object] = {}
        self._queue: List[PendingEvaluation] = []

    # ------------------------------------------------------------------
    # backends
    # ------------------------------------------------------------------
    def backend(self, name: str) -> EvaluationBackend:
        """The (lazily created, cached) backend instance for ``name``."""
        if name not in self._backends:
            if name in ("vectorized", "chip", "board"):
                self._backends[name] = create_backend(name, workers=self.workers)
            else:
                self._backends[name] = create_backend(name)
        # The registry is duck-typed (factories return object); every
        # registered backend satisfies the runtime-checkable protocol.
        return cast(EvaluationBackend, self._backends[name])

    def capabilities(self, name: str) -> BackendCapabilities:
        """Capabilities of one registered backend."""
        return self.backend(name).capabilities()

    def select_backend(self, request: EvalRequest) -> str:
        """Backend name that will serve ``request``.

        With an explicit default backend this simply returns it (the
        backend itself rejects requests it cannot serve); in ``auto`` mode
        the request's capability needs pick the backend: board-only
        features (mesh link delay) or a duplication footprint overflowing
        the chip backend's one-chip core budget route to the board,
        other chip-only features to the cycle-accurate chip backend,
        everything else to the vectorized engine.
        """
        if self.default_backend != AUTO:
            return self.default_backend
        if request.needs_board_mesh:
            return "board"
        if request.needs_cycle_accuracy:
            chip_caps = self.capabilities("chip")
            footprint = (
                request.max_copies
                * request.model.architecture.cores_per_network
            )
            if (
                chip_caps.cores_per_chip is not None
                and footprint > chip_caps.cores_per_chip
            ):
                return "board"
            return "chip"
        return "vectorized"

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def evaluate(
        self, request: EvalRequest, backend: Optional[str] = None
    ) -> EvalResult:
        """Serve one request now (submit + flush)."""
        pending = self.submit(request, backend=backend)
        self.flush()
        return pending.result()

    def submit(
        self, request: EvalRequest, backend: Optional[str] = None
    ) -> PendingEvaluation:
        """Queue a request for the next :meth:`flush`.

        Queued requests with the same coalescing key are served by one
        shared engine pass.  The returned handle's ``result()`` flushes on
        demand, so callers may also treat ``submit`` as a lazy evaluate.
        """
        if not isinstance(request, EvalRequest):
            raise TypeError(f"expected an EvalRequest, got {type(request).__name__}")
        name = backend if backend is not None else self.select_backend(request)
        if name not in backend_names():
            raise KeyError(
                f"unknown evaluation backend {name!r}; registered: {backend_names()}"
            )
        pending = PendingEvaluation(request=request, backend_name=name, _session=self)
        self._queue.append(pending)
        self.stats.submitted += 1
        return pending

    def flush(self) -> None:
        """Serve every queued request, coalescing shared engine passes."""
        if not self._queue:
            return
        queue, self._queue = self._queue, []
        self.stats.flushes += 1
        groups: Dict[Tuple, List[PendingEvaluation]] = {}
        singles: List[PendingEvaluation] = []
        for pending in queue:
            # A failure while computing the key (e.g. a backend factory that
            # cannot be constructed) resolves that handle alone — it must
            # not abort the already-detached queue.
            try:
                key = self._coalesce_key(pending.backend_name, pending.request)
            except Exception as error:
                pending._error = error
                continue
            if key is None:
                singles.append(pending)
            else:
                groups.setdefault(key, []).append(pending)
        for pending in singles:
            # Backend construction sits inside the guard too: a factory
            # that raises must resolve this handle alone, not lose the
            # rest of the detached queue.
            try:
                backend = self.backend(pending.backend_name)
                passes_before = getattr(backend, "passes", None)
                pending._result = backend.evaluate(pending.request)
            except Exception as error:
                pending._error = error
                continue
            self._count_engine_passes(backend, passes_before)
        for key, members in groups.items():
            self._serve_group(key, members)

    def _count_engine_passes(self, backend, passes_before) -> None:
        """Add a backend's actually-computed passes to the session stats.

        Backends exposing a ``passes`` counter contribute their delta;
        backends without one count one pass per evaluation.
        """
        if passes_before is None:
            self.stats.engine_passes += 1
        else:
            self.stats.engine_passes += backend.passes - passes_before

    def _serve_group(self, key: Tuple, members: List[PendingEvaluation]) -> None:
        """One engine pass over the union grid, sliced per member request.

        With a result store for the backend, a stored union result that
        covers every member's levels serves the whole group without an
        engine pass (and a freshly computed union result is stored for the
        next flush — on this session or any session sharing the store).
        """
        copy_union = tuple(
            sorted({c for m in members for c in m.request.copy_levels})
        )
        spf_union = tuple(sorted({s for m in members for s in m.request.spf_levels}))
        union_request = members[0].request.with_levels(copy_union, spf_union)
        memo = self._memo_for(members[0].backend_name)
        if memo is not None:
            memoized = memo.lookup(key, union_request)
            if memoized is not None:
                for member in members:
                    member._result = _slice_result(memoized, member.request)
                return
        try:
            backend = self.backend(members[0].backend_name)
            passes_before = getattr(backend, "passes", None)
            union_result = backend.evaluate(union_request)
        except Exception as error:
            for member in members:
                member._error = error
            return
        self._count_engine_passes(backend, passes_before)
        self.stats.coalesced_requests += len(members) - 1
        if memo is not None:
            memo.store(key, union_result)
        for member in members:
            member._result = _slice_result(union_result, member.request)

    # ------------------------------------------------------------------
    # the result store (see ResultMemo)
    # ------------------------------------------------------------------
    def _memo_for(self, backend_name: str) -> Optional[ResultMemo]:
        """The result store for ``backend_name``: ``None`` without one, or
        when the backend's capabilities do not declare it ``cacheable``."""
        if self.result_memo is None or not self.capabilities(backend_name).cacheable:
            return None
        return self.result_memo

    def cached_result(
        self, request: EvalRequest, backend: Optional[str] = None
    ) -> Optional[EvalResult]:
        """A memoized result for ``request``, without evaluating anything.

        ``None`` when the session has no store for the backend (see
        :meth:`_memo_for`), the request is non-deterministic
        (``seed=None``), or the store holds nothing covering the request's
        levels.  The serving layer's process-worker dispatcher uses this to
        answer repeated requests in the parent without shipping them to a
        worker.
        """
        name = backend if backend is not None else self.select_backend(request)
        memo = self._memo_for(name)
        key = self._coalesce_key(name, request) if memo is not None else None
        if memo is None or key is None:
            return None
        memoized = memo.lookup(key, request)
        if memoized is None:
            return None
        return _slice_result(memoized, request)

    def memoize_result(
        self,
        request: EvalRequest,
        result: EvalResult,
        backend: Optional[str] = None,
    ) -> None:
        """Feed an externally computed result into the session's memo.

        No-op without a store for the backend or for ``seed=None``
        requests.  The process-worker dispatcher calls this with results
        computed in worker processes, so the parent-side store warms exactly
        as a threaded worker's flush would warm it.
        """
        name = backend if backend is not None else self.select_backend(request)
        memo = self._memo_for(name)
        key = self._coalesce_key(name, request) if memo is not None else None
        if memo is None or key is None:
            return
        memo.store(key, result)

    # ------------------------------------------------------------------
    def _coalesce_key(
        self, backend_name: str, request: EvalRequest
    ) -> Optional[Tuple]:
        """Key under which queued requests may share one engine pass.

        ``None`` marks an uncoalescible request (fresh entropy).  The grid
        *maxima* are part of the key — only passes over the same largest
        configuration produce bit-identical nested prefixes — while the
        reported levels below the maxima are free to differ (that is the
        coalescing win: many sub-grid reads off one tensor).
        """
        if request.seed is None:
            return None
        # Every built-in backend serves multi-spf grids, so grid-capable
        # backends group on the spf *maximum*: each chip level reads the
        # same max-spf pass at its own prefix (or, stochastic, runs its own
        # independent pass), so the union's extra levels cannot perturb a
        # member's slice.
        # Keying on max_spf (not the union) also keeps spike counters
        # consistent — the chip reports them at the largest level, which is
        # then the same level for every member of the group.  A non-grid
        # out-of-tree backend still must only group identical spf tuples,
        # or the union request could become multi-spf and fail where each
        # member alone would not.
        if self.capabilities(backend_name).spf_grids:
            spf_key = request.max_spf
        else:
            spf_key = request.spf_levels
        # Keyed on the *source* dataset's memoized fingerprint plus the cap
        # (equivalent to fingerprinting the taken view, without building and
        # re-hashing a fresh view per request).
        return (
            backend_name,
            model_fingerprint(request.model),
            dataset_fingerprint(request.dataset),
            request.max_samples,
            request.seed,
            request.repeats,
            request.encoder,
            request.max_copies,
            spf_key,
            request.collect_spike_counters,
            request.router_delay,
            request.stochastic_synapses,
            request.link_delay,
        )


def _slice_result(union: EvalResult, request: EvalRequest) -> EvalResult:
    """A member request's result, read off a union-grid result.

    Exact by construction: the union pass is keyed on the same grid maxima,
    so every requested level indexes a nested prefix the member's own pass
    would have produced bit for bit.
    """
    copy_index = np.asarray(
        [union.copy_levels.index(c) for c in request.copy_levels], dtype=int
    )
    spf_index = np.asarray(
        [union.spf_levels.index(s) for s in request.spf_levels], dtype=int
    )
    return EvalResult(
        backend=union.backend,
        copy_levels=request.copy_levels,
        spf_levels=request.spf_levels,
        scores=union.scores[:, copy_index][:, :, spf_index],
        accuracy=union.accuracy[:, copy_index][:, :, spf_index],
        labels=union.labels,
        class_neuron_counts=union.class_neuron_counts,
        cores=union.cores[copy_index],
        seed=request.seed,
        repeats=request.repeats,
        spike_counters=union.spike_counters,
    )
