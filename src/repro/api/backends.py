"""Registered evaluation backends serving the :mod:`repro.api` protocol.

Four backends wrap the repo's evaluation engines behind one
:class:`~repro.api.protocol.EvaluationBackend` contract:

* ``vectorized`` — :class:`repro.eval.runner.SweepRunner` over
  :class:`repro.eval.engine.VectorizedEvaluator`: the fast functional path
  (folded firing gate, one GEMM per corelet per layer, streamed encoding).
* ``reference`` — the kept per-corelet equivalence loop
  (:func:`repro.eval.engine.evaluate_scores_reference`): slow by design,
  never cached, the ground truth the vectorized backend must match bit for
  bit.
* ``chip`` — the batched cycle-accurate TrueNorth simulator on one
  chip: all deployed copies of **all repeats** programmed side by side
  into one multi-copy chip image, lock-step ticks over ``repeats x copies
  x batch`` rows, per-core spike counters, router-delay control, and
  stochastic-synapse sweeps on per-copy LFSR streams.  A deterministic
  ``(copies, spf, repeats)`` grid is served by **one** max-spf pass whose
  readout is snapshotted at every level's prefix; copy and repeat levels
  fall out of that pass via exact integer cumsums.  Stochastic-synapse
  grids keep one pass per spf level (optionally fanned over worker
  processes).
* ``board`` — the multi-chip board mesh: duplication sweeps whose core
  footprint overflows one chip spill onto a mesh of chips,
  boundary-crossing spikes pay a configurable per-hop link delay, and
  ``workers=N`` shards each pass over its placement segments (one worker
  per simulated chip group).  Repeats run as separate passes; spf levels
  share one pass per repeat on the chip backend's terms whenever no mesh
  link lengthens a path.

Both cycle-accurate backends run one driver,
:func:`repro.mapping.pipeline.run_board_inference_multicopy`, through one
pass function: ``chip`` is a ``(1, 1)`` board
(:func:`repro.board.topology.one_chip_board`) holding the copies of every
repeat.

All four consume the canonical randomness layout documented in
:mod:`repro.api.protocol`, so a request produces the same sampled
connectivities and the same input spike realizations on every backend.
Each backend's ``evaluate`` returns per-repeat *cumulative* score tensors
sliced to the requested grid; the shared helpers here do the slicing and
accuracy derivation so result shapes cannot drift apart between backends.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.protocol import (
    BackendCapabilities,
    EvalRequest,
    EvalResult,
    ResultShapeError,
    UnsupportedRequestError,
)
from repro.board.topology import BoardConfig, board_shape_for, one_chip_board
from repro.core.model import TrueNorthModel
from repro.datasets.base import Dataset
from repro.encoding.stochastic import StochasticEncoder
from repro.eval.engine import class_counts as class_neuron_counts
from repro.eval.engine import evaluate_scores_reference
from repro.eval.runner import SweepRunner, parallel_map
from repro.mapping.corelet import CoreletNetwork, build_corelets
from repro.mapping.deploy import DeployedNetwork
from repro.mapping.duplication import deploy_with_copies
from repro.mapping.placement import BoardPlacement, place_on_board
from repro.mapping.pipeline import (
    board_link_latency,
    board_spike_counters,
    program_board_multicopy,
    run_board_inference_multicopy,
    stochastic_neuron_config,
)
from repro.truenorth.config import ChipConfig
from repro.utils.rng import clone_rng, new_rng, spawn_rngs


def _check_capabilities(request: EvalRequest, caps: BackendCapabilities) -> None:
    """Reject request features the backend does not implement.

    Raising here (instead of ignoring the feature or quietly delegating to
    another backend) is the protocol's no-silent-fallback rule.
    """
    if request.needs_board_mesh and not caps.board_mesh:
        raise UnsupportedRequestError(
            f"backend {caps.name!r} cannot simulate inter-chip mesh links "
            f"(link_delay={request.link_delay}); use the 'board' backend "
            "(or backend='auto')"
        )
    if request.needs_cycle_accuracy and not caps.cycle_accurate:
        features = []
        if request.collect_spike_counters:
            features.append("collect_spike_counters")
        if request.router_delay is not None:
            features.append(f"router_delay={request.router_delay}")
        if request.stochastic_synapses:
            features.append("stochastic_synapses")
        if request.link_delay is not None:
            features.append(f"link_delay={request.link_delay}")
        raise UnsupportedRequestError(
            f"backend {caps.name!r} is not cycle-accurate and cannot serve "
            f"{', '.join(features)}; use the 'chip' backend (or backend='auto')"
        )
    if (
        caps.cycle_accurate
        and not caps.multi_chip_copies
        and caps.cores_per_chip is not None
        and request.max_copies * request.model.architecture.cores_per_network
        > caps.cores_per_chip
    ):
        raise UnsupportedRequestError(
            f"request needs {request.max_copies} copies x "
            f"{request.model.architecture.cores_per_network} cores, which "
            f"overflows backend {caps.name!r}'s single "
            f"{caps.cores_per_chip}-core chip; use the 'board' backend "
            "(or backend='auto')"
        )
    if request.stochastic_synapses and not caps.stochastic_synapses:
        raise UnsupportedRequestError(
            f"backend {caps.name!r} cannot re-sample synapses per tick "
            "(stochastic_synapses); use the 'chip' backend (or backend='auto')"
        )
    if len(request.spf_levels) > 1 and not caps.spf_grids:
        raise UnsupportedRequestError(
            f"backend {caps.name!r} cannot derive a multi-spf grid in one "
            f"pass (requested spf_levels={request.spf_levels}); submit one "
            "request per spf level or use a grid-capable backend"
        )


def _result_from_cumulative(
    request: EvalRequest,
    backend_name: str,
    tensors: Sequence[np.ndarray],
    evaluation: Dataset,
    n_k: np.ndarray,
    cores_per_copy: int,
    spike_counters: Optional[np.ndarray] = None,
    spf_axis_levels: Optional[Tuple[int, ...]] = None,
) -> EvalResult:
    """Slice per-repeat cumulative ``(max_c, max_s, batch, classes)`` tensors
    down to the requested grid and derive the accuracy tensor.

    Every backend funnels through this one helper, which is what keeps the
    result shape (and the accuracy convention: argmax of accumulated
    class-mean scores against the labels) identical across backends.

    ``spf_axis_levels`` names the spf levels the tensors' second axis holds
    when it is not the dense ``1..max_spf`` range (the cycle-accurate
    backends hold exactly the requested levels).

    Raises:
        ResultShapeError: when the copies axis of the cumulative tensors or
            of the spike counters does not cover the requested grid —
            instead of a bare ``IndexError`` (or, worse, silent numpy
            broadcasting) deep inside the slicing below.
    """
    copy_index = np.asarray(request.copy_levels, dtype=int) - 1
    if spf_axis_levels is None:
        spf_index = np.asarray(request.spf_levels, dtype=int) - 1
    else:
        spf_index = np.asarray(
            [spf_axis_levels.index(s) for s in request.spf_levels], dtype=int
        )
    stacked = np.stack(tensors)  # (repeats, max_c, max_s, batch, classes)
    if stacked.ndim != 5 or stacked.shape[1] < request.max_copies:
        raise ResultShapeError(
            f"backend {backend_name!r} produced cumulative tensors of shape "
            f"{stacked.shape}; the request needs a (repeats, >= "
            f"{request.max_copies} copies, spf, batch, classes) tensor"
        )
    if spike_counters is not None:
        batch = len(np.asarray(evaluation.labels))
        if spike_counters.ndim != 4 or spike_counters.shape[:2] != (
            request.repeats,
            request.max_copies,
        ) or spike_counters.shape[3] != batch:
            raise ResultShapeError(
                f"backend {backend_name!r} produced spike counters of shape "
                f"{spike_counters.shape}; expected (repeats="
                f"{request.repeats}, copies={request.max_copies}, "
                f"cores_per_copy, batch={batch})"
            )
    scores = stacked[:, copy_index][:, :, spf_index]
    predictions = scores.argmax(axis=-1)
    labels = np.asarray(evaluation.labels)
    accuracy = (predictions == labels).mean(axis=-1)
    return EvalResult(
        backend=backend_name,
        copy_levels=request.copy_levels,
        spf_levels=request.spf_levels,
        scores=scores,
        accuracy=accuracy,
        labels=labels,
        class_neuron_counts=n_k,
        cores=np.array([c * cores_per_copy for c in request.copy_levels]),
        seed=request.seed,
        repeats=request.repeats,
        spike_counters=spike_counters,
    )


class VectorizedBackend:
    """The fast functional path: ``SweepRunner`` + ``VectorizedEvaluator``.

    Args:
        workers: fan independent per-repeat passes over N processes.
    """

    name = "vectorized"

    def __init__(self, workers: Optional[int] = None):
        self.workers = workers
        #: engine passes computed (one per ``evaluate``).
        self.passes = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=(
                "vectorized multi-copy engine (folded gate, streamed encoding)"
            ),
            spf_grids=True,
            cycle_accurate=False,
            cacheable=True,
        )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        evaluation = request.evaluation_dataset()
        runner = SweepRunner(
            copy_levels=request.copy_levels,
            spf_levels=request.spf_levels,
            repeats=request.repeats,
        )
        tensors = runner.cumulative_scores(
            request.model, evaluation, rng=request.seed, workers=self.workers
        )
        self.passes += 1
        network = build_corelets(request.model)
        return _result_from_cumulative(
            request,
            self.name,
            tensors,
            evaluation,
            class_neuron_counts(network),
            request.model.architecture.cores_per_network,
        )


class ReferenceBackend:
    """The kept per-corelet equivalence loop — slow, uncached ground truth.

    Never served from a cache: its whole point is to recompute from first
    principles so the vectorized backend has something independent to be
    bit-identical against.
    """

    name = "reference"

    def __init__(self) -> None:
        self.passes = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description="per-(copy, frame, corelet) reference loop (uncached)",
            spf_grids=True,
            cycle_accurate=False,
            cacheable=False,
        )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        evaluation = request.evaluation_dataset()
        network = build_corelets(request.model)
        tensors: List[np.ndarray] = []
        self.passes += 1
        for repeat_rng in spawn_rngs(new_rng(request.seed), request.repeats):
            deployment = deploy_with_copies(
                request.model,
                copies=request.max_copies,
                rng=repeat_rng,
                corelet_network=network,
            )
            scores = evaluate_scores_reference(
                deployment.copies,
                evaluation.features,
                request.max_spf,
                rng=repeat_rng,
            )
            tensors.append(np.cumsum(np.cumsum(scores, axis=0), axis=1))
        return _result_from_cumulative(
            request,
            self.name,
            tensors,
            evaluation,
            class_neuron_counts(network),
            network.core_count,
        )


def _spf_groups(request: EvalRequest, shared_pass: bool) -> List[Tuple[int, ...]]:
    """The spf levels each cycle-accurate pass of a request serves.

    A deterministic request on uniform-latency hardware (``shared_pass``)
    serves every level from one max-spf pass: the encoder draws frames
    spf-major and the deployment is drawn first from the same cloned
    generator, so the spf ``k`` pass is the first ``k`` input ticks of the
    max-spf pass, read out at its prefix snapshot (see
    :mod:`repro.mapping.pipeline`).  A ``stochastic_synapses`` request
    keeps one pass per level: its per-copy LFSR seeds are drawn after
    encoding, so they differ per level.
    """
    if shared_pass and not request.stochastic_synapses:
        return [request.spf_levels]
    return [(spf,) for spf in request.spf_levels]


def _evaluate_board_pass(
    model: TrueNorthModel,
    features: np.ndarray,
    spf_levels: Tuple[int, ...],
    repeat_rngs: List[np.random.Generator],
    network: CoreletNetwork,
    max_copies: int,
    stochastic: bool,
    collect_counters: bool,
    router_delay: Optional[int],
    board_config: BoardConfig,
    placement: BoardPlacement,
    segment_indices: Optional[Tuple[int, ...]] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """One board pass: ``repeat_rngs`` folded, ``spf_levels`` read out.

    Module-level (not a method) so :func:`repro.eval.runner.parallel_map`
    can pickle it into worker processes.  Passes are fully independent:
    each clones the pristine per-repeat generators
    (:func:`repro.utils.rng.clone_rng`), and per repeat deploys
    ``max_copies`` copies, encodes ``max(spf_levels)`` frames, then
    (stochastic mode) draws the per-copy LFSR seeds.  The copies of all
    repeats are programmed side by side (repeat-major) and the stacked
    per-repeat volumes ride the driver's grouped-input form, so repeat
    ``r``'s volume feeds exactly its block of ``max_copies`` copies.  Each
    level is read out of the pass's snapshot at its prefix.

    ``segment_indices`` restricts programming (and hence simulation) to a
    subset of the placement's segments at their original board chip
    indices; the returned counts/counters are zero outside the segment's
    copies, so a fan-out over all segments merges by summation.

    Returns ``(counts, counters)``: ``(len(spf_levels), repeats,
    max_copies, batch, classes)`` integer readout counts and the whole
    pass's ``(repeats, max_copies, cores_per_copy, batch)`` spike counters
    (or ``None``).
    """
    encoder = StochasticEncoder(spikes_per_frame=max(spf_levels))
    neuron_config = stochastic_neuron_config(network) if stochastic else None
    repeats = len(repeat_rngs)
    copies: List[DeployedNetwork] = []
    volumes: List[np.ndarray] = []
    copy_seeds: Optional[List[int]] = [] if stochastic else None
    for rng in repeat_rngs:
        level_rng = clone_rng(rng)
        copies.extend(
            deploy_with_copies(
                model, copies=max_copies, rng=level_rng, corelet_network=network
            ).copies
        )
        frames = encoder.encode(features, rng=level_rng)
        volumes.append(np.ascontiguousarray(frames.transpose(1, 0, 2)))
        if copy_seeds is not None:
            # Drawn after deployment and encoding so deterministic requests
            # keep their exact historical streams.  Sampled *without*
            # replacement — the LFSR seed space is only 16 bits, and two
            # copies sharing a seed would replay byte-identical streams,
            # silently collapsing the copies-averaging statistic the sweep
            # measures.  (Repeats may collide with each other — they always
            # could, being independent draws.)
            copy_seeds.extend(
                int(seed)
                for seed in level_rng.choice(
                    np.arange(1, 2**16), size=max_copies, replace=False
                )
            )
    board, program = program_board_multicopy(
        copies,
        board_config,
        neuron_config=neuron_config,
        router_delay=router_delay,
        placement=placement,
        segment_indices=segment_indices,
    )
    counts = run_board_inference_multicopy(
        board,
        copies,
        program,
        np.stack(volumes),
        copy_seeds=copy_seeds,
        readout_prefixes=spf_levels,
    )
    counters = None
    if collect_counters:
        counters = board_spike_counters(board, copies, program)
        counters = counters.reshape((repeats, max_copies) + counters.shape[1:])
    batch = volumes[0].shape[0]
    return counts.reshape(len(spf_levels), repeats, max_copies, batch, -1), counters


def _evaluate_on_board(
    backend: "ChipBackend | BoardBackend",
    request: EvalRequest,
    network: CoreletNetwork,
    board_config: BoardConfig,
    placement: BoardPlacement,
    repeat_blocks: List[List[np.random.Generator]],
    segment_lists: List[Optional[Tuple[int, ...]]],
    shared_pass: bool,
) -> EvalResult:
    """Serve a cycle-accurate request by board passes and fold the counts.

    One pass runs per (spf group, repeat block, segment list), fanned over
    ``backend.workers`` processes.  Segments of one pass sum (each is zero
    outside its own copies), repeat blocks join on the repeat axis, and
    copy levels fall out as exact integer cumsums over the per-copy
    readout counts.  Scores are the class-mean convention ``counts /
    n_k``, so :meth:`EvalResult.class_counts` recovers the integer readout
    counts exactly.  ``backend`` names the result, supplies ``workers``
    and counts the request in its ``passes``.
    """
    evaluation = request.evaluation_dataset()
    n_k = class_neuron_counts(network)
    backend.passes += 1
    tasks = [
        (
            request.model,
            evaluation.features,
            levels,
            block,
            network,
            request.max_copies,
            request.stochastic_synapses,
            request.collect_spike_counters,
            request.router_delay,
            board_config,
            placement,
            segments,
        )
        for levels in _spf_groups(request, shared_pass)
        for block in repeat_blocks
        for segments in segment_lists
    ]
    shards = parallel_map(_evaluate_board_pass, tasks, backend.workers)
    per_pass, per_group = len(segment_lists), len(repeat_blocks)
    # Segment shards of one pass sum: each is zero outside its own copies.
    passes = [
        [
            None if parts[0] is None else sum(parts)
            for parts in zip(*shards[i : i + per_pass])
        ]
        for i in range(0, len(shards), per_pass)
    ]
    groups = [passes[i : i + per_group] for i in range(0, len(passes), per_group)]
    # Repeat blocks join on the repeat axis and spf groups on the level
    # axis: (levels, repeats, max_copies, batch, classes), levels ascending.
    counts = np.concatenate(
        [np.concatenate([c for c, _ in group], axis=1) for group in groups]
    )
    cumulative = np.cumsum(counts, axis=2).transpose(1, 2, 0, 3, 4)
    spike_counters = None
    if request.collect_spike_counters:
        # The last group runs the largest level, whose counters a
        # single-level request at max_spf reports.
        spike_counters = np.concatenate([k for _, k in groups[-1]])
    return _result_from_cumulative(
        request,
        backend.name,
        cumulative.astype(float) / n_k,
        evaluation,
        n_k,
        network.core_count,
        spike_counters=spike_counters,
        spf_axis_levels=request.spf_levels,
    )


class ChipBackend:
    """The cycle-accurate path: batched TrueNorth simulation on one chip.

    The requested copies of **all repeats** are programmed side by side
    into **one** multi-copy chip image per pass (stacked per-core crossbar
    tensors, shared route table, per-copy LFSR streams) and the whole
    ``repeats x copies x batch`` volume advances in lock-step ticks
    (grouped-input form: repeat ``r``'s encoded volume feeds exactly its
    block of copy rows).  The chip is a ``(1, 1)`` board sized by
    :func:`repro.board.topology.one_chip_board`, run by
    :func:`~repro.mapping.pipeline.run_board_inference_multicopy`.

    ``stochastic_synapses`` requests deploy the corelets' Bernoulli
    probabilities onto the crossbars and re-sample every synapse per tick;
    each copy of each repeat draws from its own seeded LFSR stream, so
    (copies, spf, repeats) stochastic sweeps run at batch speed with
    hardware semantics.

    A deterministic grid (``spf_grids`` capability) is served by **one**
    pass: the spf ``k`` spike train is the first ``k`` frames of the
    max-spf train and the deployment is the same at every level, so the
    chip's exact feed-forward latency lets every level be read out of a
    class-count snapshot of the max-spf pass
    (``readout_prefixes``; see :mod:`repro.mapping.pipeline`).  A
    ``stochastic_synapses`` grid keeps one pass per spf level, because its
    per-copy LFSR seeds are drawn after encoding and so differ per level.
    Those passes are fully independent — each re-consumes the pristine
    per-repeat generators (:func:`repro.utils.rng.clone_rng`) — and
    ``workers=N`` fans them over worker processes
    (:func:`repro.eval.runner.parallel_map`), bit-identical at any worker
    count; a deterministic request has a single pass and runs in-process.

    Args:
        workers: fan the per-spf-level passes of stochastic-synapse
            grids over N processes (``None`` = in-process, sequential).
        cores_per_chip: advertised core budget of the one simulated chip
            (default: a stock TrueNorth chip's 64x64 grid).  Requests whose
            ``max_copies x cores_per_network`` footprint overflows it are
            rejected with a pointer at the ``board`` backend — the budget
            is what makes ``backend='auto'`` route chip-overflowing
            duplication sweeps to the board.  Folded repeats do not count
            against it.
    """

    name = "chip"

    def __init__(
        self,
        workers: Optional[int] = None,
        cores_per_chip: Optional[int] = None,
    ) -> None:
        if cores_per_chip is not None and cores_per_chip < 1:
            raise ValueError(f"cores_per_chip must be >= 1, got {cores_per_chip}")
        self.workers = workers
        self.cores_per_chip = (
            int(cores_per_chip)
            if cores_per_chip is not None
            else ChipConfig().capacity
        )
        self.passes = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=(
                "batched cycle-accurate TrueNorth simulation (repeat-folded "
                "multi-copy chip images, every spf level read out of one "
                "max-spf pass, spike counters, router delay, stochastic "
                "synapses)"
            ),
            spf_grids=True,
            cycle_accurate=True,
            cacheable=True,
            multicopy_chips=True,
            stochastic_synapses=True,
            cores_per_chip=self.cores_per_chip,
        )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        network = build_corelets(request.model)
        copies = request.repeats * request.max_copies
        board_config = one_chip_board(network.core_count, copies)
        return _evaluate_on_board(
            self,
            request,
            network,
            board_config,
            place_on_board(network, copies, board_config),
            [spawn_rngs(new_rng(request.seed), request.repeats)],
            [None],
            shared_pass=True,
        )


class BoardBackend:
    """Cycle-accurate multi-chip board simulation with mesh link delays.

    The board-scale sibling of :class:`ChipBackend`: each requested copy
    level places onto a mesh of TrueNorth chips
    (:func:`~repro.mapping.placement.place_on_board`), so duplication
    sweeps extend past one chip's core budget — whole copies stack onto
    shared chips as multi-copy images, copies larger than a chip shard
    over consecutive chips, and every boundary-crossing spike pays
    ``link_delay`` ticks per mesh hop on top of the router delay
    (:class:`repro.board.board.Board`, exact latency model asserted).

    Unlike the chip backend, repeats are *not* folded into one image:
    every repeat is its own board pass (placement depends only on the copy
    count, so all passes share one deterministic placement).  Spf levels
    follow the chip backend's grouping: a deterministic request reads
    every level out of one max-spf pass per repeat, but only while no
    mesh link lengthens a path (:func:`~repro.mapping.pipeline.board_link_latency`
    is zero, i.e. no copy is split across a link with ``link_delay > 0``).
    Otherwise, and for stochastic synapses, every ``(spf level, repeat)``
    is one pass.  Both backends run the same pass function, so a board
    whose chips hold whole copies reproduces the chip backend's counts
    (the property tests pin it).

    ``workers=N`` shards every pass over its placement segments — one
    worker process per segment (per simulated chip group), each
    re-deploying the pass's copies from the same cloned generator and
    programming only its own segment at the original board indices; the
    per-copy results merge by summation at the readout, bit-identically
    at any worker count.

    Args:
        chip_config: configuration of every chip on the board (default: a
            stock 64x64-core TrueNorth chip).
        board_shape: fixed mesh shape ``(rows, cols)``; by default each
            request gets the smallest square-ish board that fits its
            largest copy level (:func:`repro.board.topology.board_shape_for`).
        link_delay: default mesh link delay (ticks per chip hop) when the
            request does not carry one; ``EvalRequest.link_delay``
            overrides it per request.
        workers: fan each pass's placement segments over N processes
            (``None`` = in-process, sequential).
    """

    name = "board"

    def __init__(
        self,
        chip_config: Optional[ChipConfig] = None,
        board_shape: Optional[Tuple[int, int]] = None,
        link_delay: int = 0,
        workers: Optional[int] = None,
    ) -> None:
        if link_delay < 0:
            raise ValueError(f"link_delay must be >= 0, got {link_delay}")
        self.chip_config = chip_config or ChipConfig()
        self.board_shape = board_shape
        self.link_delay = int(link_delay)
        self.workers = workers
        self.passes = 0

    def capabilities(self) -> BackendCapabilities:
        return BackendCapabilities(
            name=self.name,
            description=(
                "cycle-accurate multi-chip board mesh (copies spill across "
                "chips, split copies hand off at chip edges, mesh link "
                "delays, one pass per repeat for every spf level unless "
                "links lengthen a path, spike counters, stochastic synapses)"
            ),
            spf_grids=True,
            cycle_accurate=True,
            cacheable=True,
            multicopy_chips=True,
            stochastic_synapses=True,
            board_mesh=True,
            multi_chip_copies=True,
            cores_per_chip=self.chip_config.capacity,
        )

    def _board_config(self, network: CoreletNetwork, copies: int) -> BoardConfig:
        shape = self.board_shape
        if shape is None:
            shape = board_shape_for(network.core_count, copies, self.chip_config)
        return BoardConfig(
            grid_shape=shape,
            chip_config=self.chip_config,
            link_delay=self.link_delay,
        )

    def evaluate(self, request: EvalRequest) -> EvalResult:
        _check_capabilities(request, self.capabilities())
        network = build_corelets(request.model)
        board_config = self._board_config(network, request.max_copies)
        if request.link_delay is not None:
            board_config = BoardConfig(
                grid_shape=board_config.grid_shape,
                chip_config=board_config.chip_config,
                link_delay=int(request.link_delay),
            )
        # The placement is a pure function of (network, copies, board): the
        # parent reads the spf grouping off it, and every pass (and worker)
        # programs exactly it.
        placement = place_on_board(network, request.max_copies, board_config)
        segment_lists: List[Optional[Tuple[int, ...]]] = [None]
        if self.workers is not None:
            segment_lists = [(index,) for index in range(len(placement.segments))]
        return _evaluate_on_board(
            self,
            request,
            network,
            board_config,
            placement,
            [[rng] for rng in spawn_rngs(new_rng(request.seed), request.repeats)],
            segment_lists,
            shared_pass=board_link_latency(placement, board_config.link_delay) == 0,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[..., object]] = {}


def register_backend(name: str, factory: Callable[..., object]) -> None:
    """Register an :class:`EvaluationBackend` factory under ``name``.

    Re-registering a name replaces the factory (useful for tests and for
    out-of-tree backends like a future GPU engine).
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    _REGISTRY[name] = factory


def backend_names() -> Tuple[str, ...]:
    """Names of all registered backends (sorted)."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, **config) -> object:
    """Instantiate a registered backend by name.

    Keyword arguments are passed to the backend factory (e.g. ``workers``).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown evaluation backend {name!r}; registered: {backend_names()}"
        ) from None
    return factory(**config)


register_backend("vectorized", VectorizedBackend)
register_backend("reference", ReferenceBackend)
register_backend("chip", ChipBackend)
register_backend("board", BoardBackend)
