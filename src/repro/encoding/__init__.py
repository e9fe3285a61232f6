"""Spike encoding for TrueNorth inputs and decoding of its outputs.

TrueNorth communicates only binary spikes, so real-valued inputs (normalized
pixel intensities in [0, 1]) must be translated into spike trains.  The paper
uses the *stochastic* code — each tick a pixel spikes with probability equal
to its intensity — parameterized by the number of spike samples per frame
(spf), which is the temporal-duplication knob of the evaluation.  It is the
only code an evaluation request accepts.

Decoders convert output spike counts back into class scores.
"""

from repro.encoding.stochastic import StochasticEncoder
from repro.encoding.decoder import SpikeCountDecoder

__all__ = [
    "StochasticEncoder",
    "SpikeCountDecoder",
]
