"""Board placement: packing, copy splitting, and mesh-distance statistics.

``place_on_board`` packs each copy's layers onto as few chips as possible —
whole copies stack first-fit onto shared chips, copies larger than one chip
claim runs of consecutive empty chips — and reports per-chip occupation and
inter-chip hop statistics.  These tests pin:

* the satellite fix that ``ChipPlacement.grid_shape`` is *derived* from the
  chip configuration (it used to be hard-coded to the stock 64x64 grid);
* the packing invariants (a chip hosts either whole copies or exactly one
  shard; shard bounds partition the copy's corelets; occupation never
  exceeds capacity) under hypothesis-generated networks and boards;
* the mesh-distance statistics (``transition_chip_distances``,
  ``mesh_statistics``) on placements whose worst paths are known by
  construction — these numbers feed the exact board drain bound, so they
  are asserted here, not just computed;
* ``transition_chip_distances``, which walks only one copy's corelets,
  and ``board_link_latency``, which walks only split copies, against a
  brute-force scan of every assignment on random placements;
* ``one_chip_board``, the chip backend's sizing rule: every folded copy
  stays whole on one chip whose column count ignores the copy count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.board import BoardConfig, board_shape_for, one_chip_board
from repro.mapping.pipeline import board_link_latency
from repro.mapping.placement import place_on_board, place_on_chip
from repro.truenorth.config import ChipConfig

from test_chip_batch_equivalence import random_deployed_network


def _network(depth=2, cores_per_layer=(2, 2), seed=0):
    rng = np.random.default_rng(seed)
    return random_deployed_network(
        rng, depth, list(cores_per_layer), 2, 3, 2
    ).corelet_network


def _chip(cores: int) -> ChipConfig:
    """A chip whose core grid holds exactly ``cores`` cores."""
    return ChipConfig(grid_shape=(1, cores))


# ----------------------------------------------------------------------
# satellite fix: grid_shape derives from the chip config
# ----------------------------------------------------------------------
def test_chip_placement_grid_shape_derived_from_config():
    network = _network()
    placement = place_on_chip(network, 1, ChipConfig(grid_shape=(8, 8)))
    assert placement.grid_shape == (8, 8)
    # The stock chip still reports the stock grid — via the config, not a
    # constant.
    assert place_on_chip(network).grid_shape == ChipConfig().grid_shape


def test_chip_placement_positions_follow_configured_columns():
    network = _network()  # 4 cores
    placement = place_on_chip(network, 1, ChipConfig(grid_shape=(2, 2)))
    positions = [
        placement.position(0, layer, index)
        for layer in range(2)
        for index in range(2)
    ]
    assert positions == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_chip_placement_overflow_raises():
    with pytest.raises(RuntimeError, match="needs 8 cores"):
        place_on_chip(_network(), copies=2, chip_config=ChipConfig(grid_shape=(1, 4)))


# ----------------------------------------------------------------------
# board packing
# ----------------------------------------------------------------------
def test_whole_copies_stack_first_fit():
    network = _network(depth=1, cores_per_layer=(2,))  # 2 cores per copy
    config = BoardConfig(grid_shape=(2, 1), chip_config=_chip(4))
    placement = place_on_board(network, copies=3, board_config=config)
    assert placement.per_chip_occupation() == {0: 4, 1: 2}
    assert placement.occupied_chips() == 2
    assert placement.split_copies() == ()
    by_chip = {
        segment.chips[0]: segment.copies
        for segment in placement.segments
    }
    assert by_chip == {0: (0, 1), 1: (2,)}
    assert all(not segment.split for segment in placement.segments)


def test_split_copy_claims_consecutive_empty_chips():
    network = _network()  # 4 cores, 2 layers x 2 corelets
    config = BoardConfig(grid_shape=(2, 2), chip_config=_chip(2))
    placement = place_on_board(network, copies=2, board_config=config)
    assert placement.split_copies() == (0, 1)
    segments = sorted(placement.segments, key=lambda s: s.chips[0])
    assert segments[0].chips == (0, 1) and segments[1].chips == (2, 3)
    for segment in segments:
        assert segment.split
        assert segment.shard_bounds == (0, 2, 4)
    # Layer-major flat order: layer 0 on the first shard chip, layer 1 on
    # the second.
    assert placement.chip_of(0, 0, 0) == placement.chip_of(0, 0, 1) == 0
    assert placement.chip_of(0, 1, 0) == placement.chip_of(0, 1, 1) == 1


def test_board_overflow_raises_both_branches():
    network = _network()  # 4 cores
    with pytest.raises(RuntimeError, match="no chip .* has that many free"):
        place_on_board(
            network,
            copies=3,
            board_config=BoardConfig(grid_shape=(1, 1), chip_config=_chip(8)),
        )
    with pytest.raises(RuntimeError, match="consecutive empty chips"):
        place_on_board(
            network,
            copies=2,
            board_config=BoardConfig(grid_shape=(1, 3), chip_config=_chip(2)),
        )


# ----------------------------------------------------------------------
# mesh-distance statistics (asserted, not just computed)
# ----------------------------------------------------------------------
def test_single_chip_copy_has_zero_distances():
    network = _network()
    config = BoardConfig(grid_shape=(2, 2), chip_config=_chip(4))
    placement = place_on_board(network, copies=2, board_config=config)
    for copy in range(2):
        assert placement.transition_chip_distances(copy) == [0]
    assert placement.mesh_statistics() == {
        "split_copies": 0,
        "boundary_transitions": 0,
        "max_chip_distance": 0,
    }


def test_adjacent_split_distances():
    network = _network()  # layer 0 -> chip 0, layer 1 -> chip 1
    config = BoardConfig(grid_shape=(1, 2), chip_config=_chip(2))
    placement = place_on_board(network, copies=1, board_config=config)
    assert placement.transition_chip_distances(0) == [1]
    assert placement.mesh_statistics() == {
        "split_copies": 1,
        "boundary_transitions": 1,
        "max_chip_distance": 1,
    }


def test_worst_path_spans_the_shard_run():
    # One core per chip: layer 0 on chips {0, 1}, layer 1 on chips {2, 3}
    # of a 1x4 board; the worst transition path is chip 0 -> chip 3.
    network = _network()
    config = BoardConfig(grid_shape=(1, 4), chip_config=_chip(1))
    placement = place_on_board(network, copies=1, board_config=config)
    assert placement.transition_chip_distances(0) == [3]
    stats = placement.mesh_statistics()
    assert stats["max_chip_distance"] == 3
    assert stats["boundary_transitions"] == 1


def test_depth_three_reports_one_distance_per_transition():
    network = _network(depth=3, cores_per_layer=(2, 2, 1))  # 5 cores
    config = BoardConfig(grid_shape=(1, 3), chip_config=_chip(2))
    placement = place_on_board(network, copies=1, board_config=config)
    distances = placement.transition_chip_distances(0)
    assert len(distances) == 2
    # flat order: chip0 = layer0, chip1 = layer1, chip2 = layer2's core.
    assert distances == [1, 1]


# ----------------------------------------------------------------------
# topology helpers
# ----------------------------------------------------------------------
def test_board_config_validation():
    with pytest.raises(ValueError):
        BoardConfig(grid_shape=(0, 2))
    with pytest.raises(ValueError):
        BoardConfig(link_delay=-1)
    config = BoardConfig(grid_shape=(2, 3))
    assert config.chip_count == 6
    assert config.chip_position(4) == (1, 1)
    with pytest.raises(IndexError):
        config.chip_position(6)
    # Manhattan distance, symmetric.
    assert config.chip_distance(0, 5) == config.chip_distance(5, 0) == 3


@given(
    core_count=st.integers(min_value=1, max_value=40),
    copies=st.integers(min_value=1, max_value=12),
    capacity=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_board_shape_for_always_fits(core_count, copies, capacity):
    chip = ChipConfig(grid_shape=(1, capacity))
    rows, cols = board_shape_for(core_count, copies, chip)
    chips = rows * cols
    if core_count <= capacity:
        per_chip = capacity // core_count
        assert chips * per_chip >= copies
    else:
        shards = -(-core_count // capacity)
        assert chips >= copies * shards
    assert abs(rows - cols) <= max(rows, cols)  # square-ish, sanity


# ----------------------------------------------------------------------
# hypothesis: packing invariants
# ----------------------------------------------------------------------
@given(
    depth=st.integers(min_value=1, max_value=3),
    copies=st.integers(min_value=1, max_value=4),
    capacity=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10),
    data=st.data(),
)
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_board_packing_invariants(depth, copies, capacity, seed, data):
    layer_sizes = {1: (2,), 2: (2, 2), 3: (2, 2, 1)}[depth]
    network = _network(depth=depth, cores_per_layer=layer_sizes, seed=seed)
    per_copy = network.core_count
    shape = board_shape_for(per_copy, copies, _chip(capacity))
    # Sometimes over-provision the board so first-fit back-fill is exercised.
    if data.draw(st.booleans()):
        shape = (shape[0] + 1, shape[1])
    config = BoardConfig(grid_shape=shape, chip_config=_chip(capacity))
    placement = place_on_board(network, copies=copies, board_config=config)

    # Every corelet of every copy is assigned exactly once.
    expected_keys = {
        (copy, layer, index)
        for copy in range(copies)
        for layer, n in enumerate(layer_sizes)
        for index in range(n)
    }
    assert set(placement.assignments) == expected_keys
    assert placement.occupied_cores == copies * per_copy

    # Occupation never exceeds chip capacity; slots are in-grid.
    occupation = placement.per_chip_occupation()
    assert all(count <= capacity for count in occupation.values())
    for chip, row, col in placement.assignments.values():
        assert 0 <= chip < config.chip_count
        assert 0 <= row < config.chip_config.grid_shape[0]
        assert 0 <= col < config.chip_config.grid_shape[1]

    # Segments partition the copies; chips host whole copies XOR one shard.
    seg_copies = [c for segment in placement.segments for c in segment.copies]
    assert sorted(seg_copies) == list(range(copies))
    whole_chips = {
        chip
        for segment in placement.segments
        if not segment.split
        for chip in segment.chips
    }
    split_chips = [
        chip
        for segment in placement.segments
        if segment.split
        for chip in segment.chips
    ]
    assert whole_chips.isdisjoint(split_chips)
    assert len(split_chips) == len(set(split_chips))
    for segment in placement.segments:
        if segment.split:
            assert len(segment.copies) == 1
            bounds = segment.shard_bounds
            assert bounds[0] == 0 and bounds[-1] == per_copy
            assert list(bounds) == sorted(bounds)
            assert len(bounds) == len(segment.chips) + 1
            # Consecutive chips.
            assert segment.chips == tuple(
                range(segment.chips[0], segment.chips[0] + len(segment.chips))
            )
        else:
            assert len(segment.chips) == 1
            assert segment.shard_bounds == ()

    # Statistics are consistent with the per-copy distances.
    stats = placement.mesh_statistics()
    assert stats["split_copies"] == len(placement.split_copies())
    expected_boundary = 0
    expected_max = 0
    for copy in placement.split_copies():
        distances = placement.transition_chip_distances(copy)
        assert len(distances) == depth - 1
        expected_boundary += sum(1 for d in distances if d > 0)
        expected_max = max([expected_max] + distances)
    assert stats["boundary_transitions"] == expected_boundary
    assert stats["max_chip_distance"] == expected_max
    for copy in range(copies):
        if copy not in placement.split_copies():
            assert placement.transition_chip_distances(copy) == [0] * (depth - 1)


# ----------------------------------------------------------------------
# link latency of a placement, and the one-chip board
# ----------------------------------------------------------------------
def _scanned_transition_distances(placement, copy):
    """The definition, by brute force over every assignment of the board."""
    by_layer = {}
    for (c, layer, _), (chip, _, _) in placement.assignments.items():
        if c == copy:
            by_layer.setdefault(layer, []).append(placement.chip_position(chip))
    return [
        max(
            abs(row_a - row_b) + abs(col_a - col_b)
            for row_a, col_a in by_layer[layer]
            for row_b, col_b in by_layer[layer + 1]
        )
        for layer in range(len(by_layer) - 1)
    ]


@given(
    depth=st.integers(min_value=1, max_value=3),
    copies=st.integers(min_value=1, max_value=5),
    capacity=st.integers(min_value=1, max_value=8),
    link_delay=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=10),
    data=st.data(),
)
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
def test_board_link_latency_matches_per_copy_definition(
    depth, copies, capacity, link_delay, seed, data
):
    layer_sizes = {1: (3,), 2: (3, 2), 3: (2, 3, 1)}[depth]
    network = _network(depth=depth, cores_per_layer=layer_sizes, seed=seed)
    rows, cols = board_shape_for(network.core_count, copies, _chip(capacity))
    # Wider or taller boards spread a split copy's shards over more rows.
    rows += data.draw(st.integers(0, 2), label="extra rows")
    cols += data.draw(st.integers(0, 2), label="extra cols")
    config = BoardConfig(
        grid_shape=(rows, cols), chip_config=_chip(capacity), link_delay=link_delay
    )
    placement = place_on_board(network, copies=copies, board_config=config)
    subset = data.draw(
        st.none() | st.lists(st.integers(0, copies - 1), unique=True),
        label="copies",
    )
    for copy in range(copies):
        assert placement.transition_chip_distances(copy) == (
            _scanned_transition_distances(placement, copy)
        )
    # Whole copies included: they must contribute zero.
    considered = range(copies) if subset is None else subset
    assert board_link_latency(placement, link_delay, subset) == max(
        (
            link_delay * sum(_scanned_transition_distances(placement, copy))
            for copy in considered
        ),
        default=0,
    )


@given(
    core_count=st.integers(min_value=1, max_value=60),
    copies=st.integers(min_value=1, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_one_chip_board_holds_every_copy_whole(core_count, copies):
    config = one_chip_board(core_count, copies)
    assert config.grid_shape == (1, 1) and config.link_delay == 0
    rows, cols = config.chip_config.grid_shape
    # The square-ish column count of one copy, whatever the copy count.
    assert cols == one_chip_board(core_count, 1).chip_config.grid_shape[1]
    assert cols == int(np.ceil(core_count / np.ceil(np.sqrt(core_count))))
    # Just enough rows for copies * core_count placement slots.
    assert (rows - 1) * cols < copies * core_count <= rows * cols
    network = _network(depth=1, cores_per_layer=(core_count,))
    placement = place_on_board(network, copies=copies, board_config=config)
    assert [s.copies for s in placement.segments] == [tuple(range(copies))]
    assert placement.split_copies() == ()
