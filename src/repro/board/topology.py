"""Topology of a multi-chip board: a mesh of TrueNorth chips.

The NS16e-style boards tile several chips on a 2-D grid and connect
neighbours with inter-chip links.  The reproduction models the board as a
``(rows, cols)`` grid whose links add a configurable *link delay* per mesh
hop on top of the on-chip router delay: a spike emitted at tick ``t`` on
chip ``a`` toward chip ``b`` is delivered at
``t + router_delay + link_delay * chip_distance(a, b)``, where the chip
distance is the Manhattan distance on the board grid (dimension-order
routing over the mesh links).  ``link_delay=0`` collapses the board to a
set of chips sharing one synchronous tick, which is what the bit-identity
equivalence tests against the one-chip board pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.truenorth.config import ChipConfig


@dataclass(frozen=True)
class BoardConfig:
    """Parameters of a simulated multi-chip board.

    Attributes:
        grid_shape: ``(rows, cols)`` of the chip mesh.
        chip_config: configuration shared by every chip on the board.
        link_delay: extra delivery delay (in ticks) a spike pays per mesh
            hop between chips; ``0`` makes inter-chip delivery as fast as
            on-chip routing.
    """

    grid_shape: Tuple[int, int] = (1, 1)
    chip_config: ChipConfig = field(default_factory=ChipConfig)
    link_delay: int = 0

    def __post_init__(self):
        rows, cols = self.grid_shape
        if rows <= 0 or cols <= 0:
            raise ValueError(f"grid_shape must be positive, got {self.grid_shape}")
        if self.link_delay < 0:
            raise ValueError(f"link_delay must be >= 0, got {self.link_delay}")

    @property
    def chip_count(self) -> int:
        """Number of chips on the board."""
        return self.grid_shape[0] * self.grid_shape[1]

    @property
    def core_capacity(self) -> int:
        """Total number of core slots across all chips."""
        return self.chip_count * self.chip_config.capacity

    def chip_position(self, index: int) -> Tuple[int, int]:
        """(row, col) of a chip on the board grid (row-major indexing)."""
        rows, cols = self.grid_shape
        if not (0 <= index < rows * cols):
            raise IndexError(f"chip index {index} outside [0, {rows * cols})")
        return index // cols, index % cols

    def chip_distance(self, a: int, b: int) -> int:
        """Manhattan distance between two chips (mesh hops a link spike pays)."""
        row_a, col_a = self.chip_position(a)
        row_b, col_b = self.chip_position(b)
        return abs(row_a - row_b) + abs(col_a - col_b)


def board_shape_for(
    core_count: int, copies: int, chip_config: ChipConfig = ChipConfig()
) -> Tuple[int, int]:
    """Smallest square-ish board grid that fits ``copies`` network copies.

    Mirrors the packing rule of
    :func:`repro.mapping.placement.place_on_board`: a copy that fits one
    chip is never split (so chips hold ``floor(capacity / core_count)``
    copies each), while a copy larger than one chip claims
    ``ceil(core_count / capacity)`` whole chips for itself.

    Args:
        core_count: cores one network copy occupies.
        copies: copies to place.
        chip_config: per-chip configuration (supplies the core capacity).

    Returns:
        ``(rows, cols)`` with ``rows * cols`` chips, as square as possible.
    """
    if core_count <= 0:
        raise ValueError(f"core_count must be positive, got {core_count}")
    if copies <= 0:
        raise ValueError(f"copies must be positive, got {copies}")
    capacity = chip_config.capacity
    if core_count <= capacity:
        per_chip = capacity // core_count
        chips = math.ceil(copies / per_chip)
    else:
        chips = copies * math.ceil(core_count / capacity)
    rows = math.ceil(math.sqrt(chips))
    cols = math.ceil(chips / rows)
    return rows, cols


def one_chip_board(core_count: int, copies: int) -> BoardConfig:
    """A ``(1, 1)`` board whose chip holds ``copies`` whole network copies.

    The chip backend runs every pass on such a board.  A stacked multi-copy
    image programs ``core_count`` cores whatever the copy count, and core
    ``k`` sits at ``(k // cols, k % cols)``, so the column count alone fixes
    the image's on-chip hop counts.  It stays at the square-ish
    ``ceil(core_count / ceil(sqrt(core_count)))`` for every copy count.
    Placement books ``core_count`` slots per copy, so the chip gets enough
    rows for all ``copies * core_count`` of them and every copy stays whole.

    Args:
        core_count: cores one network copy occupies.
        copies: copies stacked onto the chip.
    """
    if core_count <= 0:
        raise ValueError(f"core_count must be positive, got {core_count}")
    if copies <= 0:
        raise ValueError(f"copies must be positive, got {copies}")
    cols = math.ceil(core_count / math.ceil(math.sqrt(core_count)))
    rows = math.ceil(copies * core_count / cols)
    return BoardConfig(chip_config=ChipConfig(grid_shape=(rows, cols)))
