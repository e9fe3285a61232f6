"""The cycle-accurate engine on one chip, driven the way the chip backend does.

A chip is a ``(1, 1)`` board sized by
:func:`repro.board.topology.one_chip_board`; the board driver
(:func:`repro.mapping.pipeline.run_board_inference_multicopy`) runs it.
:func:`program_one_chip` programs ``copies`` side by side into that chip's
multi-copy image and returns a :class:`OneChip` that runs passes over it
and exposes the chip and its core ids to the equivalence suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.board.board import Board
from repro.board.topology import one_chip_board
from repro.mapping.deploy import DeployedNetwork
from repro.mapping.pipeline import (
    BoardProgram,
    board_spike_counters,
    program_board_multicopy,
    run_board_inference_multicopy,
)
from repro.truenorth.chip import TrueNorthChip
from repro.truenorth.config import NeuronConfig


@dataclass
class OneChip:
    """A programmed one-chip board and the copies it holds."""

    board: Board
    program: BoardProgram
    copies: Sequence[DeployedNetwork]

    @property
    def chip(self) -> TrueNorthChip:
        return self.board.chips[0]

    @property
    def core_ids(self) -> List[List[int]]:
        """``core_ids[layer][index]``: the physical core of each corelet."""
        return self.program.image_chips[0][1]

    def run(
        self,
        volumes: np.ndarray,
        copy_seeds: Optional[Sequence[int]] = None,
        readout_prefixes: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Per-copy class counts of one pass (see the board driver)."""
        return run_board_inference_multicopy(
            self.board,
            self.copies,
            self.program,
            volumes,
            copy_seeds=copy_seeds,
            readout_prefixes=readout_prefixes,
        )

    def spike_counters(self) -> np.ndarray:
        """``(copies, cores_per_copy, batch)`` counters of the last pass."""
        return board_spike_counters(self.board, self.copies, self.program)


def program_one_chip(
    copies: Sequence[DeployedNetwork],
    neuron_config: Optional[NeuronConfig] = None,
    router_delay: Optional[int] = None,
) -> OneChip:
    """Program ``copies`` into one chip's stacked multi-copy image."""
    copies = list(copies)
    board, program = program_board_multicopy(
        copies,
        one_chip_board(copies[0].corelet_network.core_count, len(copies)),
        neuron_config=neuron_config,
        router_delay=router_delay,
    )
    return OneChip(board, program, copies)
