"""Tests for the digital neuron model (one-row batches exercise the rule)."""

import numpy as np
import pytest

from repro.truenorth import constants
from repro.truenorth.config import NeuronConfig
from repro.truenorth.neuron import NeuronArray

from chip_oracle import neuron_tick


def neuron(config=None):
    """A one-neuron, one-row array."""
    array = NeuronArray(1, config)
    array.begin_batch(1)
    return array


def step(array, value, active=None):
    """Advance a one-neuron array one tick; returns 1 if it fired."""
    counts = None if active is None else np.array([[active]], dtype=np.int64)
    return int(array.step_batch(np.array([[value]]), active_synapses=counts)[0, 0])


def potential(array):
    return int(array.potentials[0, 0])


def test_mcculloch_pitts_threshold_rule():
    array = neuron(NeuronConfig(threshold=0, leak=0))
    assert step(array, 5) == 1
    assert step(array, 0) == 1  # y' >= 0 fires (Eq. 4)
    assert step(array, -1) == 0
    # ...unless no synapse was active: a silent crossbar never fires.
    assert step(array, 0, active=0) == 0
    assert step(array, 0, active=1) == 1


def test_mcculloch_pitts_leak_subtracted():
    array = neuron(NeuronConfig(leak=3))
    assert step(array, 2) == 0  # 2 - 3 < 0
    assert step(array, 3) == 1  # 3 - 3 >= 0


def test_mcculloch_pitts_is_history_free():
    array = neuron(NeuronConfig())
    step(array, 100)
    # Potential resets regardless of input history.
    assert potential(array) == array.config.reset_potential
    assert step(array, -1) == 0


def test_lif_accumulates_when_not_history_free():
    config = NeuronConfig(threshold=10, history_free=False)
    array = neuron(config)
    assert step(array, 4) == 0
    assert step(array, 4) == 0
    assert potential(array) == 8
    assert step(array, 4) == 1  # 12 >= 10 fires
    assert potential(array) == config.reset_potential


def test_lif_history_free_matches_mcculloch_pitts():
    """With history_free the LIF update is Eq. 4: fire iff x - leak >= 0."""
    config = NeuronConfig(threshold=0, leak=1, history_free=True)
    array = neuron(config)
    rng = np.random.default_rng(0)
    for _ in range(50):
        value = int(rng.integers(-5, 6))
        assert step(array, value) == int(value - config.leak >= config.threshold)


def test_lif_reset():
    array = neuron(NeuronConfig(threshold=100, history_free=False))
    step(array, 5)
    array.reset()
    assert array.potentials is None
    array.begin_batch(1)
    assert potential(array) == array.config.reset_potential


def test_potential_saturates_at_hardware_range():
    array = neuron(NeuronConfig(threshold=2**30, history_free=False))
    for _ in range(10):
        step(array, constants.POTENTIAL_MAX)
    assert potential(array) == constants.POTENTIAL_MAX


def test_neuron_array_matches_scalar_neurons():
    """Every row of the batch update equals the oracle's scalar neuron."""
    config = NeuronConfig(threshold=2, leak=1, history_free=False)
    array = NeuronArray(4, config)
    array.begin_batch(3)
    scalars = [np.zeros(4, dtype=np.int64) for _ in range(3)]
    rng = np.random.default_rng(1)
    for _ in range(30):
        inputs = rng.integers(-3, 4, size=(3, 4))
        vector_spikes = array.step_batch(inputs)
        for row, potentials in enumerate(scalars):
            fired = neuron_tick(config, potentials, inputs[row], None)
            assert vector_spikes[row].tolist() == fired.astype(int).tolist()
        assert array.potentials.tolist() == [p.tolist() for p in scalars]


def test_neuron_array_input_validation():
    array = NeuronArray(3)
    array.begin_batch(1)
    with pytest.raises(ValueError):
        array.step_batch(np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        array.step_batch(
            np.zeros((1, 3), dtype=np.int64),
            active_synapses=np.zeros((1, 4), dtype=np.int64),
        )
    with pytest.raises(ValueError):
        NeuronArray(0)


def test_neuron_config_validation():
    with pytest.raises(ValueError):
        NeuronConfig(weight_table=(1, 2, 3))
    with pytest.raises(ValueError):
        NeuronConfig(weight_table=(1, -1, 2, 10_000))
