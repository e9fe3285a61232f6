"""Board engine and backend: bit-identical to the one-chip engine.

The board subsystem's equivalence discipline, pinned at ``atol=0``
against the one-chip board the chip backend runs (``tests/one_chip.py``),
which is itself checked against the scalar oracle
(``tests/chip_oracle.py``) in every reference run:

* the one-chip board replays the oracle bit for bit — class counts,
  per-core spike counters, router delivered/hop counters, and
  (stochastic mode) the final per-copy LFSR register states;
* spreading whole copies over several chips changes *where* cores live but
  not a single count, and carries zero link traffic;
* splitting a copy across chips hands spikes off at chip edges through the
  mesh links, and the summed delivered counters across the board equal the
  single chip's (conservation: a spike crosses a link instead of
  vanishing).  The counts themselves are invariant under ``link_delay``
  only when every input of each neuron is delayed by the same number of
  links: single-layer models (no transition), splits where every path of a
  layer transition pays the same links (one layer per chip), and the half
  splits pinned below, whose unequal transitions cancel along every path.
  Where the paths into one neuron pay different links (e.g. a test-bench-5
  copy cut through its first layer), that neuron integrates spikes from
  different input ticks and the counts change.  ``router_delay`` and a
  ``link_delay`` of 0 never change them;
* ``board.reset()`` drops run state but not programming — a rerun after a
  completed (or drained) run reproduces the first run exactly, link
  counters included;
* the ``board`` backend equals the ``chip`` backend on every request the
  chip can serve, at any worker count, and ``Session`` auto-routes
  ``link_delay`` requests and chip-overflowing copy budgets to it.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import EvalRequest, Session, UnsupportedRequestError
from repro.api.backends import (
    BoardBackend,
    ChipBackend,
    create_backend,
    register_backend,
)
from repro.board import BoardConfig
from repro.mapping.pipeline import (
    board_spike_counters,
    program_board_multicopy,
    run_board_inference_multicopy,
)
from repro.truenorth.config import ChipConfig

from chip_oracle import lfsr_state_after, simulate, simulate_request
from one_chip import program_one_chip
from test_chip_multicopy_equivalence import (
    _STOCHASTIC,
    assert_multicopy_matches_percopy,
    random_deployed_copies,
)

_SETTINGS = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _image_columns(core_count: int) -> int:
    """Columns of the chip a stacked image runs on: ceil-sqrt square-ish.

    Core ``k`` sits at ``(k // cols, k % cols)``, so the column count alone
    fixes every on-chip hop count, whatever the number of stacked copies.
    """
    return int(np.ceil(core_count / np.ceil(np.sqrt(core_count))))


def _chip_reference(copies, volumes, neuron_config, delay, seeds):
    """The one-chip engine's run, checked against the scalar oracle."""
    chip, core_ids, counts = assert_multicopy_matches_percopy(
        copies, volumes, neuron_config, delay, seeds
    )
    flat = [cid for layer in core_ids for cid in layer]
    counters = np.stack(
        [chip.core(cid).multicopy_spike_counts for cid in flat], axis=1
    )
    return chip, flat, counts, counters


# ----------------------------------------------------------------------
# pipeline level: 1x1 board identity
# ----------------------------------------------------------------------
@given(
    depth=st.integers(min_value=1, max_value=3),
    stochastic=st.booleans(),
    delay=st.integers(min_value=1, max_value=2),
    grouped=st.booleans(),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_board_1x1_bit_identical_to_single_chip(
    depth, stochastic, delay, grouped, seed
):
    """The one-chip board the chip backend runs equals the scalar oracle."""
    rng = np.random.default_rng(seed)
    n_copies = 2
    copies = random_deployed_copies(
        rng, n_copies, depth, fractional_probabilities=stochastic
    )
    network = copies[0].corelet_network
    neuron_config = _STOCHASTIC if stochastic else None
    copy_seeds = [int(s) for s in rng.integers(1, 2**16, size=n_copies)]
    shape = (
        (n_copies, 3, 2, network.input_dim)
        if grouped
        else (3, 2, network.input_dim)
    )
    volumes = (rng.random(shape) < 0.4).astype(np.int8)

    one = program_one_chip(copies, neuron_config=neuron_config, router_delay=delay)
    counts = one.run(volumes, copy_seeds=copy_seeds)
    runs = [
        simulate(
            copy,
            volumes[index] if grouped else volumes,
            neuron_config=neuron_config,
            router_delay=delay,
            core_seed=copy_seeds[index],
        )
        for index, copy in enumerate(copies)
    ]
    board, board_chip = one.board, one.chip

    assert board.chip_count == 1
    assert np.array_equal(np.stack([run.class_counts for run in runs]), counts)
    assert np.array_equal(
        np.stack([run.core_spikes.T for run in runs]), one.spike_counters()
    )
    assert board.fabric.spikes_carried == 0 and board.fabric.hop_count == 0
    assert board_chip.router.delivered_count == sum(run.routed for run in runs)
    cols = _image_columns(network.core_count)
    assert board_chip.router.hop_count == sum(
        carried * (abs(a // cols - b // cols) + abs(a % cols - b % cols))
        for run in runs
        for (a, b), carried in run.routes.items()
    )
    flat = [cid for layer in one.core_ids for cid in layer]
    assert flat == list(range(network.core_count))
    if stochastic:
        ticks = max(run.ticks for run in runs)
        for core_id in flat:
            assert [
                prng.state for prng in board_chip.core(core_id).copy_prngs
            ] == [lfsr_state_after(seed + core_id + 1, ticks) for seed in copy_seeds]


# ----------------------------------------------------------------------
# pipeline level: whole copies spread over chips — zero link traffic
# ----------------------------------------------------------------------
@given(
    depth=st.integers(min_value=1, max_value=3),
    stochastic=st.booleans(),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_whole_copy_spread_is_invariant_and_traffic_free(depth, stochastic, seed):
    rng = np.random.default_rng(seed)
    n_copies = 3
    copies = random_deployed_copies(
        rng, n_copies, depth, fractional_probabilities=stochastic
    )
    network = copies[0].corelet_network
    neuron_config = _STOCHASTIC if stochastic else None
    copy_seeds = [int(s) for s in rng.integers(1, 2**16, size=n_copies)]
    volumes = (rng.random((3, 2, network.input_dim)) < 0.4).astype(np.int8)

    _, _, ref_counts, ref_counters = _chip_reference(
        copies, volumes, neuron_config, 1, copy_seeds
    )

    # One copy per chip, non-zero link delay: whole copies never touch it.
    config = BoardConfig(
        grid_shape=(2, 2),
        chip_config=ChipConfig(grid_shape=(1, network.core_count)),
        link_delay=3,
    )
    board, program = program_board_multicopy(
        copies, config, neuron_config=neuron_config
    )
    counts = run_board_inference_multicopy(
        board, copies, program, volumes, copy_seeds=copy_seeds
    )
    assert program.placement.occupied_chips() == n_copies
    assert np.array_equal(ref_counts, counts)
    assert np.array_equal(
        ref_counters, board_spike_counters(board, copies, program)
    )
    assert board.fabric.spikes_carried == 0


# ----------------------------------------------------------------------
# pipeline level: split copies hand off at chip edges
# ----------------------------------------------------------------------
@given(
    depth=st.integers(min_value=2, max_value=3),
    delay=st.integers(min_value=1, max_value=3),
    link_delay=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_split_copy_handoff_matches_single_chip(depth, delay, link_delay, seed):
    rng = np.random.default_rng(seed)
    n_copies = 2
    copies = random_deployed_copies(rng, n_copies, depth)
    network = copies[0].corelet_network
    volumes = (rng.random((3, 3, network.input_dim)) < 0.45).astype(np.int8)

    chip, _, ref_counts, ref_counters = _chip_reference(
        copies, volumes, None, delay, None
    )

    half = (network.core_count + 1) // 2
    config = BoardConfig(
        grid_shape=(2, 2), chip_config=ChipConfig(grid_shape=(1, half)),
        link_delay=link_delay,
    )
    board, program = program_board_multicopy(
        copies, config, router_delay=delay
    )
    counts = run_board_inference_multicopy(board, copies, program, volumes)

    assert program.placement.split_copies() == tuple(range(n_copies))
    stats = program.placement.mesh_statistics()
    assert stats["max_chip_distance"] >= 1
    # Half splits of these topologies delay every input of a neuron by the
    # same number of links (at depth 3 the two layer-1 -> layer-2 paths pay
    # 1 and 0 links, after layer-0 -> layer-1 paths that paid 0 and 1), so
    # the spikes arrive later but identical.
    assert np.array_equal(ref_counts, counts)
    assert np.array_equal(
        ref_counters, board_spike_counters(board, copies, program)
    )
    # Conservation: every on-chip delivery happens somewhere on the board.
    delivered = sum(c.router.delivered_count for c in board.chips)
    assert delivered == chip.router.delivered_count
    # Link traffic is real whenever some inter-layer spike fired, and its
    # hop accounting matches the placement's worst-distance bound.
    assert board.fabric.hop_count <= (
        board.fabric.spikes_carried * max(1, stats["max_chip_distance"])
    )
    assert board.fabric.spikes_carried == sum(board.fabric.pair_counts.values())


@given(
    depth=st.integers(min_value=2, max_value=3),
    delay=st.integers(min_value=1, max_value=2),
    link_delay=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=100),
)
@_SETTINGS
def test_layer_per_chip_split_matches_single_chip(depth, delay, link_delay, seed):
    """One layer per chip: every path of a transition pays the same links,
    so a multi-layer copy reproduces the chip engine at any link delay."""
    rng = np.random.default_rng(seed)
    n_copies = 2
    copies = random_deployed_copies(rng, n_copies, depth)
    network = copies[0].corelet_network
    volumes = (rng.random((3, 3, network.input_dim)) < 0.45).astype(np.int8)

    _, _, ref_counts, ref_counters = _chip_reference(
        copies, volumes, None, delay, None
    )

    # Every layer of these topologies has at most two cores: a two-core
    # chip holds exactly one layer of one copy.
    widest = max(len(layer) for layer in network.corelets)
    config = BoardConfig(
        grid_shape=(2, 3),
        chip_config=ChipConfig(grid_shape=(1, widest)),
        link_delay=link_delay,
    )
    board, program = program_board_multicopy(copies, config, router_delay=delay)
    chip_layers = {}
    for (copy, layer, _), (chip_index, _, _) in program.placement.assignments.items():
        chip_layers.setdefault(chip_index, set()).add((copy, layer))
    assert all(len(held) == 1 for held in chip_layers.values())
    assert len(chip_layers) == n_copies * depth
    for copy in range(n_copies):
        assert min(program.placement.transition_chip_distances(copy)) >= 1

    counts = run_board_inference_multicopy(board, copies, program, volumes)
    assert np.array_equal(ref_counts, counts)
    assert np.array_equal(
        ref_counters, board_spike_counters(board, copies, program)
    )
    assert board.fabric.spikes_carried > 0 or not ref_counters.any()


def test_board_reset_reproduces_the_run():
    rng = np.random.default_rng(7)
    copies = random_deployed_copies(rng, 2, 2)
    network = copies[0].corelet_network
    volumes = (rng.random((3, 3, network.input_dim)) < 0.45).astype(np.int8)
    half = (network.core_count + 1) // 2
    config = BoardConfig(
        grid_shape=(1, 4), chip_config=ChipConfig(grid_shape=(1, half)),
        link_delay=2,
    )
    board, program = program_board_multicopy(copies, config, router_delay=2)
    first = run_board_inference_multicopy(board, copies, program, volumes)
    first_fabric = (board.fabric.spikes_carried, board.fabric.hop_count)
    assert first_fabric[0] > 0

    # Reset mid-life: run state (in-flight spikes, tick counters, link
    # counters) drops, programming (crossbars, remote routes) survives.
    board.reset()
    assert not board.has_pending()
    assert board.fabric.spikes_carried == 0 and board.fabric.pair_counts == {}
    assert all(chip.batch_size is None for chip in board.chips)

    second = run_board_inference_multicopy(board, copies, program, volumes)
    assert np.array_equal(first, second)
    assert (board.fabric.spikes_carried, board.fabric.hop_count) == first_fabric


def test_reset_during_drain_discards_in_flight_spikes():
    # Interrupt a run mid-tick-loop: reset must clear pending link spikes
    # so a fresh run is not contaminated.
    rng = np.random.default_rng(11)
    copies = random_deployed_copies(rng, 1, 2)
    network = copies[0].corelet_network
    volumes = (rng.random((2, 3, network.input_dim)) < 0.6).astype(np.int8)
    half = (network.core_count + 1) // 2
    config = BoardConfig(
        grid_shape=(1, 2), chip_config=ChipConfig(grid_shape=(1, half)),
        link_delay=3,
    )
    board, program = program_board_multicopy(copies, config, router_delay=2)
    reference = run_board_inference_multicopy(board, copies, program, volumes)

    board.reset()
    # Start a second run by hand and abandon it while spikes are in flight.
    from repro.mapping.pipeline import INPUT_CHANNEL, _gather_input_volumes

    for chip_index in program.shard_chips:
        board.chips[chip_index].begin_batch(volumes.shape[0], copies=1)
    per_binding = _gather_input_volumes(network, volumes)
    inputs = {
        chip_index: {
            INPUT_CHANNEL: {
                binding: per_binding[corelet][:, 0, :]
                for binding, corelet in enumerate(
                    program.shard_inputs[chip_index]
                )
            }
        }
        for chip_index in program.shard_inputs
    }
    board.step_batch(inputs)
    board.reset()
    assert not board.has_pending()

    replay = run_board_inference_multicopy(board, copies, program, volumes)
    assert np.array_equal(reference, replay)


# ----------------------------------------------------------------------
# backend level
# ----------------------------------------------------------------------
def _request(model, dataset, **kwargs):
    kwargs.setdefault("copy_levels", (1, 2))
    kwargs.setdefault("spf_levels", (1, 2))
    kwargs.setdefault("repeats", 2)
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("max_samples", 10)
    return EvalRequest(model=model, dataset=dataset, **kwargs)


@pytest.fixture(scope="module")
def model_and_dataset(tiny_context):
    return tiny_context.result("tea").model, tiny_context.evaluation_dataset()


def test_board_backend_matches_chip_backend(model_and_dataset):
    model, dataset = model_and_dataset
    request = _request(model, dataset, collect_spike_counters=True)
    chip_result = ChipBackend().evaluate(request)
    board_result = BoardBackend().evaluate(request)
    assert board_result.backend == "board"
    assert np.array_equal(chip_result.scores, board_result.scores)
    assert np.array_equal(
        chip_result.class_counts(), board_result.class_counts()
    )
    assert np.array_equal(chip_result.accuracy, board_result.accuracy)
    assert np.array_equal(
        chip_result.spike_counters, board_result.spike_counters
    )


def test_board_backend_matches_chip_backend_stochastic(model_and_dataset):
    model, dataset = model_and_dataset
    request = _request(
        model, dataset, stochastic_synapses=True, router_delay=2,
        spf_levels=(1,), max_samples=8,
    )
    chip_result = ChipBackend().evaluate(request)
    board_result = BoardBackend().evaluate(request)
    assert np.array_equal(
        chip_result.class_counts(), board_result.class_counts()
    )


def test_board_worker_sharding_is_bit_identical(model_and_dataset):
    model, dataset = model_and_dataset
    cores = model.architecture.cores_per_network
    # Half-copy chips force split copies, so workers shard real segments.
    small = ChipConfig(grid_shape=(1, max(1, (cores + 1) // 2)))
    request = _request(model, dataset, collect_spike_counters=True)
    monolithic = BoardBackend(chip_config=small).evaluate(request)
    sharded = BoardBackend(chip_config=small, workers=2).evaluate(request)
    assert np.array_equal(monolithic.scores, sharded.scores)
    assert np.array_equal(
        monolithic.spike_counters, sharded.spike_counters
    )


def test_link_delay_changes_nothing_for_history_free_copies(model_and_dataset):
    # The deployed tea model is deterministic and history-free, so mesh
    # latency shifts arrival ticks without changing any count.
    model, dataset = model_and_dataset
    cores = model.architecture.cores_per_network
    small = ChipConfig(grid_shape=(1, max(1, (cores + 1) // 2)))
    base = _request(model, dataset, spf_levels=(1,))
    delayed = _request(model, dataset, spf_levels=(1,), link_delay=2)
    ideal = BoardBackend(chip_config=small).evaluate(base)
    slow = BoardBackend(chip_config=small).evaluate(delayed)
    assert slow.backend == "board"
    assert np.array_equal(ideal.class_counts(), slow.class_counts())


def test_link_delay_is_gated_off_non_board_backends(model_and_dataset):
    model, dataset = model_and_dataset
    request = _request(model, dataset, link_delay=1)
    for name in ("chip", "vectorized", "reference"):
        with pytest.raises(UnsupportedRequestError, match="board"):
            create_backend(name).evaluate(request)


def test_session_routes_link_delay_to_board(model_and_dataset):
    model, dataset = model_and_dataset
    session = Session()
    request = _request(model, dataset, spf_levels=(1,), link_delay=0)
    assert session.select_backend(request) == "board"
    result = session.evaluate(request)
    assert result.backend == "board"


def test_session_routes_chip_overflow_to_board(model_and_dataset):
    model, dataset = model_and_dataset
    cores = model.architecture.cores_per_network
    # A chip the size of one copy: any duplication overflows it.
    register_backend(
        "chip", lambda **kw: ChipBackend(cores_per_chip=cores, **kw)
    )
    try:
        session = Session()
        request = _request(
            model, dataset, copy_levels=(1, 2), spf_levels=(1,),
            collect_spike_counters=True,
        )
        assert session.select_backend(request) == "board"
        result = session.evaluate(request)
        assert result.backend == "board"
        # The sweep completed with conservation intact: exact integer
        # counts recoverable and counters present for every copy level.
        assert result.class_counts().dtype == np.int64
        assert result.spike_counters.shape[:2] == (request.repeats, 2)
        # An explicit chip evaluation of the same request is refused.
        with pytest.raises(UnsupportedRequestError, match="board"):
            session.evaluate(request, backend="chip")
    finally:
        register_backend("chip", ChipBackend)


def test_requests_differing_in_link_delay_do_not_coalesce(model_and_dataset):
    model, dataset = model_and_dataset
    session = Session(backend="board")
    a = session.submit(_request(model, dataset, spf_levels=(1,), link_delay=0))
    b = session.submit(_request(model, dataset, spf_levels=(1,), link_delay=1))
    session.flush()
    assert session.stats.coalesced_requests == 0
    assert np.array_equal(
        a.result().class_counts(), b.result().class_counts()
    )


def test_chip_folds_repeats_past_its_copy_budget(model_and_dataset):
    """The budget counts one repeat's copies; the chip holds every repeat.

    Three repeats of two copies need ``3 x 2 x cores`` placement slots
    while the advertised budget is ``2 x cores``: the request is still
    served, on one chip sized for all six copies, and equals the scalar
    oracle, spike counters included.
    """
    model, dataset = model_and_dataset
    cores = model.architecture.cores_per_network
    backend = ChipBackend(cores_per_chip=2 * cores)
    request = _request(
        model, dataset, copy_levels=(1, 2), spf_levels=(1, 3), repeats=3,
        max_samples=6, collect_spike_counters=True,
    )
    assert request.repeats * request.max_copies * cores > backend.cores_per_chip
    result = backend.evaluate(request)
    counts, counters = simulate_request(request)
    assert result.backend == "chip"
    np.testing.assert_array_equal(result.class_counts(), counts)
    np.testing.assert_array_equal(result.spike_counters, counters)
    assert counts.sum() > 0
    # One copy more than the budget is refused.
    with pytest.raises(UnsupportedRequestError, match="overflows"):
        backend.evaluate(replace(request, copy_levels=(1, 3)))


@pytest.mark.parametrize("cores_per_chip", [0, -4])
def test_chip_backend_rejects_a_coreless_budget(cores_per_chip):
    with pytest.raises(ValueError, match="cores_per_chip must be >= 1"):
        ChipBackend(cores_per_chip=cores_per_chip)
    with pytest.raises(ValueError, match="cores_per_chip must be >= 1"):
        create_backend("chip", cores_per_chip=cores_per_chip)
