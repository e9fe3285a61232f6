"""SweepRunner: one-pass evaluation of a whole (copies, spf) grid.

The sweep drivers of Figures 7-9 and Table 2 all need deployed accuracy over
a grid of spatial x temporal duplication levels.  :class:`SweepRunner` wires
the pieces together on top of :class:`repro.eval.engine.VectorizedEvaluator`:

* the corelets are built once and the *largest* copy count is deployed once
  per repeat;
* the input frames are encoded once per repeat (streamed in chunks so the
  spike volume never fully materializes) and pushed through all copies in a
  single vectorized pass;
* every smaller grid point is derived from cumulative sums of the score
  tensor (the scores of a 16-copy, 4-spf deployment contain those of every
  nested configuration — just sum fewer copies / fewer frames);
* with ``workers=N``, :meth:`SweepRunner.run` fans the independent
  per-repeat deployment+evaluation passes over a ``ProcessPoolExecutor``.
  The child generators are spawned in the parent exactly as the serial path
  spawns them, so parallel results are bit-identical to serial ones.

The runner keeps no results: reusing a finished evaluation is the job of
the session-level result store (:class:`repro.api.ResultMemo`), keyed on
the content fingerprints defined here.
"""

from __future__ import annotations

import hashlib
import weakref
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.model import TrueNorthModel
from repro.datasets.base import Dataset
from repro.eval.engine import VectorizedEvaluator
from repro.mapping.corelet import CoreletNetwork, build_corelets
from repro.mapping.duplication import deploy_with_copies
from repro.nn.metrics import accuracy_score
from repro.utils.rng import RngLike, new_rng, spawn_rngs


#: Memoized fingerprints keyed by object identity.  Models and datasets are
#: de-facto immutable once built (Dataset is a frozen dataclass), but they
#: hold numpy arrays and thus are unhashable, so this is an ``id()`` table
#: with a weak reference guarding against id reuse after garbage collection.
_FINGERPRINT_MEMO: Dict[int, Tuple["weakref.ref", str]] = {}


def _memoized_fingerprint(obj, compute: Callable[[], str], hashed_arrays) -> str:
    """Content hash memoized per object identity.

    The memo is only sound if the hashed content does not change under it,
    so the arrays that went into the hash are frozen (``writeable = False``)
    as a best-effort guard: a direct in-place mutation afterwards raises
    instead of silently serving stored results of the pre-mutation object.
    Objects holding view arrays are never memoized (their base buffer stays
    writable; the hash is recomputed per call, the pre-memo behaviour).
    The guard is not airtight — writing through a view taken *before* the
    first fingerprint call, or replacing a list slot with a new array,
    bypasses it — so trained models and evaluation datasets must be treated
    as immutable once they enter the evaluation layer, which everything in
    this package does.
    """
    entry = _FINGERPRINT_MEMO.get(id(obj))
    if entry is not None and entry[0]() is obj:
        return entry[1]
    fingerprint = compute()
    if any(array.base is not None for array in hashed_arrays):
        return fingerprint
    if len(_FINGERPRINT_MEMO) > 64:
        for key in [k for k, (ref, _) in _FINGERPRINT_MEMO.items() if ref() is None]:
            del _FINGERPRINT_MEMO[key]
    try:
        _FINGERPRINT_MEMO[id(obj)] = (weakref.ref(obj), fingerprint)
    except TypeError:
        return fingerprint  # no weak references; recompute next time
    for array in hashed_arrays:
        array.flags.writeable = False
    return fingerprint


def model_fingerprint(model: TrueNorthModel) -> str:
    """Stable content hash of a trained model (architecture + weights).

    Memoized per model instance so repeated sweeps of the same trained model
    (the result-store path of serve-style workloads) do not re-hash the full
    weight tensors on every request.  Side effect: the hashed weight arrays
    are frozen (``writeable = False``) to keep the memo sound — treat a
    model as immutable once it has been evaluated.
    """

    def compute() -> str:
        digest = hashlib.sha256()
        arch = model.architecture
        digest.update(
            f"{arch.name}|{arch.input_dim}|{arch.num_classes}|"
            f"{arch.synaptic_value}|{len(arch.layers)}".encode()
        )
        for layer_weights in model.block_weights:
            for weights in layer_weights:
                digest.update(str(weights.shape).encode())
                digest.update(
                    np.ascontiguousarray(weights, dtype=np.float64).tobytes()
                )
        return digest.hexdigest()

    arrays = [w for layer_weights in model.block_weights for w in layer_weights]
    return _memoized_fingerprint(model, compute, arrays)


def dataset_fingerprint(dataset: Dataset) -> str:
    """Stable content hash of an evaluation dataset (features + labels).

    Memoized per dataset instance; the hashed feature/label arrays are
    frozen to keep the memo sound (see :func:`model_fingerprint`).
    """

    def compute() -> str:
        digest = hashlib.sha256()
        features = np.ascontiguousarray(dataset.features, dtype=np.float64)
        labels = np.ascontiguousarray(dataset.labels)
        digest.update(str(features.shape).encode())
        digest.update(features.tobytes())
        digest.update(labels.tobytes())
        return digest.hexdigest()

    return _memoized_fingerprint(
        dataset, compute, (dataset.features, dataset.labels)
    )


def parallel_map(
    fn: Callable[..., object],
    argument_tuples: Sequence[Tuple],
    workers: Optional[int],
) -> List:
    """Map a picklable function over argument tuples, optionally in processes.

    The shared fan-out primitive of the evaluation layer: with ``workers=N``
    (N > 1) and more than one work item, the calls run on a
    ``ProcessPoolExecutor`` capped at ``min(workers, len(items))``;
    otherwise they run serially in-process.  Results come back in submission
    order either way, so callers are bit-identical under any worker count —
    all randomness must enter through the argument tuples (generators
    spawned in the parent), never be drawn in the children.

    Which axis to shard over is the caller's choice of work unit:
    :class:`SweepRunner` fans out *repeats* (each repeat is one independent
    deployment + vectorized pass; every (copies, spf) cell is a nested
    prefix of its repeat's tensor).  Both cycle-accurate backends fan out
    the passes of :func:`repro.api.backends._evaluate_board_pass`: the chip
    backend — whose single pass already folds all repeats into the stacked
    copy axis and, for deterministic requests, reads every spf level out
    of one pass — the per-*spf-level* passes of stochastic-synapse grids,
    and the board backend its per-repeat passes split by placement
    segment.
    """
    items = list(argument_tuples)
    if workers is not None and workers > 1 and len(items) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            futures = [pool.submit(fn, *args) for args in items]
            return [future.result() for future in futures]
    return [fn(*args) for args in items]


def _evaluate_repeat(
    model: TrueNorthModel,
    features: np.ndarray,
    max_copies: int,
    max_spf: int,
    chunk_frames: Optional[int],
    repeat_rng: np.random.Generator,
    corelet_network: CoreletNetwork,
) -> np.ndarray:
    """One repeat's cumulative score tensor (module-level for picklability).

    This is the unit of work the worker pool distributes: one independent
    deployment (``max_copies`` sampled connectivities) plus one evaluation
    pass, consuming ``repeat_rng`` exactly as the serial loop does.
    """
    deployment = deploy_with_copies(
        model, copies=max_copies, rng=repeat_rng, corelet_network=corelet_network
    )
    evaluator = VectorizedEvaluator(deployment.copies)
    scores = evaluator.evaluate_scores(
        features, max_spf, rng=repeat_rng, chunk_frames=chunk_frames
    )  # (copies, spf, batch, classes)
    return np.cumsum(np.cumsum(scores, axis=0), axis=1)


@dataclass
class SweepRunner:
    """Evaluates a trained model over a (copies, spf) grid in one pass.

    Args:
        copy_levels: spatial duplication levels to report (deduplicated and
            sorted ascending).
        spf_levels: temporal duplication levels to report.
        repeats: independent deployment + encoding repeats averaged per grid
            point.
        max_samples: optional cap on evaluated samples.
        chunk_frames: spike frames encoded per streaming chunk (``None`` =
            automatic).
    """

    copy_levels: Sequence[int] = (1, 2, 4, 8, 16)
    spf_levels: Sequence[int] = (1, 2, 3, 4)
    repeats: int = 3
    max_samples: Optional[int] = None
    chunk_frames: Optional[int] = None

    def __post_init__(self):
        self.copy_levels = tuple(sorted(set(int(c) for c in self.copy_levels)))
        self.spf_levels = tuple(sorted(set(int(s) for s in self.spf_levels)))
        if not self.copy_levels or self.copy_levels[0] <= 0:
            raise ValueError("copy_levels must be positive integers")
        if not self.spf_levels or self.spf_levels[0] <= 0:
            raise ValueError("spf_levels must be positive integers")
        if self.repeats <= 0:
            raise ValueError(f"repeats must be positive, got {self.repeats}")

    def _evaluation_view(self, dataset: Dataset) -> Dataset:
        """The (possibly capped) evaluation dataset."""
        if self.max_samples is None:
            return dataset
        return dataset.take(self.max_samples)

    # ------------------------------------------------------------------
    def cumulative_scores(
        self,
        model: TrueNorthModel,
        dataset: Dataset,
        rng: RngLike = None,
        corelet_network: Optional[CoreletNetwork] = None,
        workers: Optional[int] = None,
    ) -> List[np.ndarray]:
        """Per-repeat cumulative score tensors of the largest configuration.

        Each returned array has shape ``(max_copies, max_spf, batch,
        num_classes)`` and holds ``cumsum`` over the copy and frame axes, so
        ``tensor[c - 1, s - 1]`` is the accumulated score of a (c, s)
        deployment.

        With ``workers=N`` the independent per-repeat passes (each one full
        deployment + evaluation; every (copies, spf) grid cell is a nested
        prefix of its repeat's tensor, so repeats are the parallel unit) are
        fanned over a ``ProcessPoolExecutor``.  The child generators are
        spawned in the parent exactly as the serial loop spawns them, so the
        results are bit-identical to ``workers=None``.
        """
        evaluation = self._evaluation_view(dataset)
        network = corelet_network or build_corelets(model)
        repeat_rngs = spawn_rngs(new_rng(rng), self.repeats)
        return parallel_map(
            _evaluate_repeat,
            [
                (
                    model,
                    evaluation.features,
                    self.copy_levels[-1],
                    self.spf_levels[-1],
                    self.chunk_frames,
                    repeat_rng,
                    network,
                )
                for repeat_rng in repeat_rngs
            ],
            workers,
        )

    def run(
        self,
        model: TrueNorthModel,
        dataset: Dataset,
        rng: RngLike = None,
        label: str = "",
        corelet_network: Optional[CoreletNetwork] = None,
        workers: Optional[int] = None,
    ):
        """Full grid sweep; returns a :class:`repro.eval.sweep.SweepResult`.

        ``workers=N`` distributes the per-repeat evaluation passes over N
        processes (see :meth:`cumulative_scores`); results are bit-identical
        to the serial path.
        """
        from repro.eval.sweep import SweepResult

        evaluation = self._evaluation_view(dataset)
        labels = evaluation.labels
        tensors = self.cumulative_scores(
            model, dataset, rng=rng, corelet_network=corelet_network, workers=workers
        )
        accuracy_samples = np.zeros(
            (self.repeats, len(self.copy_levels), len(self.spf_levels)),
            dtype=np.float64,
        )
        for repeat_index, grid_cumulative in enumerate(tensors):
            for i, copies in enumerate(self.copy_levels):
                for j, spf in enumerate(self.spf_levels):
                    merged = grid_cumulative[copies - 1, spf - 1]
                    predictions = merged.argmax(axis=1)
                    accuracy_samples[repeat_index, i, j] = accuracy_score(
                        labels, predictions
                    )
        cores_per_copy = model.architecture.cores_per_network
        cores = np.array([c * cores_per_copy for c in self.copy_levels])
        return SweepResult(
            copy_levels=self.copy_levels,
            spf_levels=self.spf_levels,
            mean_accuracy=accuracy_samples.mean(axis=0),
            std_accuracy=accuracy_samples.std(axis=0),
            cores=cores,
            repeats=self.repeats,
            label=label,
        )
