"""Multi-chip board simulation: a mesh of TrueNorth chips with link delays.

The package models an NS16e-style board as a grid of
:class:`~repro.truenorth.chip.TrueNorthChip` instances joined by mesh
links (:class:`~repro.board.board.Board`); a spike crossing a chip
boundary pays ``link_delay`` ticks per chip hop on top of the on-chip
router delay, and the exact on-chip latency/drain model extends
board-wide.  Placement and the inference driver live in
:mod:`repro.mapping.placement`
(:func:`~repro.mapping.placement.place_on_board`) and
:mod:`repro.mapping.pipeline`
(:func:`~repro.mapping.pipeline.run_board_inference_multicopy`); the
``chip`` and ``board`` evaluation backends in :mod:`repro.api` drive them,
``chip`` on the one-chip board :func:`~repro.board.topology.one_chip_board`
sizes.
"""

from repro.board.board import Board, LinkFabric
from repro.board.topology import BoardConfig, board_shape_for, one_chip_board

__all__ = [
    "Board",
    "LinkFabric",
    "BoardConfig",
    "board_shape_for",
    "one_chip_board",
]
