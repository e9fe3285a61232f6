"""Batched chip engine vs the per-sample scalar oracle: bit-identical.

The chip engine (a one-chip board run by ``run_board_inference_multicopy``,
see ``tests/one_chip.py``) advances B samples of one network copy in
lock-step.  These tests build
random corelet networks — varying depth, router delay, history-free vs
stateful LIF neurons, shuffled inter-layer wiring, and readout sizes with
``output_dim % num_classes != 0`` — and assert that the per-sample class
counts *and* the per-core spike counters of the batch run equal those of
the scalar oracle (``tests/chip_oracle.py``) run on each sample alone.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mapping.corelet import Corelet, CoreletNetwork
from repro.mapping.deploy import DeployedNetwork
from repro.truenorth.config import CoreConfig, NeuronConfig
from repro.truenorth.core import NeurosynapticCore
from repro.truenorth.neuron import NeuronArray

from chip_oracle import simulate
from one_chip import program_one_chip


def random_deployed_network(
    rng: np.random.Generator,
    depth: int,
    cores_per_layer,
    neurons_per_core: int,
    axons_per_first_core: int,
    num_classes: int,
    fractional_probabilities: bool = False,
) -> DeployedNetwork:
    """A random hand-built deployed copy (random wiring and ternary weights).

    Layer-0 axons consume the flat input contiguously; deeper layers consume
    a random permutation of the previous layer's output channels, exercising
    non-contiguous routing.  ``neurons_per_core * cores_per_layer[-1]`` is
    deliberately not forced to divide ``num_classes``.

    With ``fractional_probabilities`` the corelet ON-probabilities are
    scaled into (0.3, 0.95) instead of being exactly 0/1, so
    stochastic-synapse deployments actually re-sample (a 0/1 Bernoulli is
    deterministic regardless of the LFSR stream).
    """
    input_dim = cores_per_layer[0] * axons_per_first_core
    corelets, weights = [], []
    prev_out = input_dim
    for layer in range(depth):
        n_cores = cores_per_layer[layer]
        if layer == 0:
            channels = np.arange(input_dim)
        else:
            channels = rng.permutation(prev_out)
        per_core = len(channels) // n_cores
        layer_corelets, layer_weights = [], []
        out_base = 0
        for index in range(n_cores):
            ins = tuple(
                int(c) for c in channels[index * per_core : (index + 1) * per_core]
            )
            outs = tuple(range(out_base, out_base + neurons_per_core))
            out_base += neurons_per_core
            sampled = rng.integers(-1, 2, size=(len(ins), neurons_per_core)).astype(
                float
            )
            probabilities = np.abs(sampled)
            if fractional_probabilities:
                probabilities = probabilities * rng.uniform(
                    0.3, 0.95, size=probabilities.shape
                )
            layer_corelets.append(
                Corelet(
                    layer=layer,
                    index=index,
                    input_channels=ins,
                    probabilities=probabilities,
                    synaptic_values=np.sign(sampled),
                    output_channels=outs,
                )
            )
            layer_weights.append(sampled)
        corelets.append(layer_corelets)
        weights.append(layer_weights)
        prev_out = out_base
    assignment = rng.integers(0, num_classes, size=prev_out)
    assignment[:num_classes] = np.arange(num_classes)  # every class represented
    network = CoreletNetwork(
        corelets=corelets,
        class_assignment=assignment,
        num_classes=num_classes,
        input_dim=input_dim,
    )
    return DeployedNetwork(corelet_network=network, sampled_weights=weights)


def assert_batch_matches_scalar(deployed, volumes, neuron_config=None, delay=1):
    """Run the batch engine and the per-sample oracle; compare everything."""
    one = program_one_chip(
        [deployed], neuron_config=neuron_config, router_delay=delay
    )
    batch_counts = one.run(volumes)[0]
    chip = one.chip
    core_order = [core_id for layer in one.core_ids for core_id in layer]
    batch_spikes = np.stack(
        [chip.core(c).multicopy_spike_counts[0] for c in core_order], axis=1
    )
    oracle = simulate(deployed, volumes, neuron_config=neuron_config, router_delay=delay)
    assert np.array_equal(oracle.class_counts, batch_counts)
    assert np.array_equal(oracle.core_spikes, batch_spikes)
    assert chip.router.delivered_count == oracle.routed
    assert chip.tick_count == oracle.ticks
    assert not chip.router.has_pending()
    return batch_counts


@pytest.mark.parametrize(
    "depth,cores_per_layer,delay,neuron_config",
    [
        (1, (3,), 1, None),
        (2, (2, 2), 1, None),
        (3, (3, 2, 1), 1, None),
        (2, (2, 2), 3, None),
        (2, (2, 2), 1, NeuronConfig(threshold=1, history_free=False)),
        (3, (2, 2, 2), 2, NeuronConfig(threshold=2, leak=1, history_free=False)),
    ],
)
def test_batch_equals_scalar_over_random_networks(
    depth, cores_per_layer, delay, neuron_config
):
    rng = np.random.default_rng(100 * depth + 10 * delay)
    # 7 readout neurons per final core with 4 classes: output_dim is not a
    # multiple of num_classes, the readout layout the deployed-scoring fix
    # guards against.
    deployed = random_deployed_network(
        rng,
        depth=depth,
        cores_per_layer=cores_per_layer,
        neurons_per_core=7,
        axons_per_first_core=12,
        num_classes=4,
    )
    volumes = (
        rng.random((6, 5, deployed.corelet_network.input_dim)) < 0.45
    ).astype(np.int8)
    counts = assert_batch_matches_scalar(deployed, volumes, neuron_config, delay)
    if neuron_config is None:
        # History-free random ternary networks fire roughly half the time;
        # a silent run would make this test vacuous.
        assert counts.sum() > 0


def test_batch_equals_scalar_with_stochastic_synapses():
    """Batch mode replays the per-tick LFSR stream every scalar run sees.

    Each oracle run starts its core PRNGs afresh, so sample i's tick-t
    connectivity draw is identical across samples; the batch engine draws
    once per tick and shares it, which must be spike-for-spike the same.
    """
    rng = np.random.default_rng(11)
    deployed = random_deployed_network(
        rng,
        depth=2,
        cores_per_layer=(2, 1),
        neurons_per_core=6,
        axons_per_first_core=10,
        num_classes=3,
        fractional_probabilities=True,
    )
    neuron_config = NeuronConfig(
        weight_table=(1, -1, 0, 0),
        history_free=True,
        stochastic_synapses=True,
    )
    volumes = (
        rng.random((4, 4, deployed.corelet_network.input_dim)) < 0.5
    ).astype(np.int8)
    counts = assert_batch_matches_scalar(deployed, volumes, neuron_config)
    assert counts.sum() > 0


def test_core_batch_spike_counts_match_scalar_runs():
    """Batch rows are independent: a B-row batch equals B one-row batches."""
    rng = np.random.default_rng(5)
    config = CoreConfig(axons=24, neurons=10)
    core = NeurosynapticCore(config)
    core.crossbar.set_signed_weights(rng.integers(-2, 3, size=(24, 10)))
    frames = (rng.random((7, 9, 24)) < 0.4).astype(np.int8)  # (batch, ticks, axons)

    single_counts, single_spikes = [], []
    for sample in frames:
        core.begin_batch(1)
        single_spikes.append(np.concatenate([core.tick_batch(f[None]) for f in sample]))
        single_counts.append(core.spike_count)

    core.begin_batch(frames.shape[0])
    batch_spikes = np.stack(
        [core.tick_batch(frames[:, t]) for t in range(frames.shape[1])], axis=1
    )
    assert np.array_equal(batch_spikes, np.stack(single_spikes))
    assert np.array_equal(core.multicopy_spike_counts[0], np.array(single_counts))
    assert core.spike_count == int(np.sum(single_counts))


def test_neuron_array_mode_guards():
    array = NeuronArray(4)
    with pytest.raises(RuntimeError):
        array.step_batch(np.zeros((2, 4), dtype=np.int64))
    array.begin_batch(2)
    assert array.potentials.shape == (2, 4)
    with pytest.raises(ValueError):
        array.step_batch(np.zeros((3, 4), dtype=np.int64))
    array.reset()
    assert array.batch_size is None
    assert array.potentials is None
    with pytest.raises(ValueError):
        array.begin_batch(0)


def test_chip_mode_guards():
    rng = np.random.default_rng(2)
    deployed = random_deployed_network(
        rng,
        depth=1,
        cores_per_layer=(2,),
        neurons_per_core=5,
        axons_per_first_core=8,
        num_classes=3,
    )
    chip = program_one_chip([deployed]).chip
    with pytest.raises(RuntimeError, match="begin_batch"):
        chip.step_batch()
    chip.begin_batch(3)
    chip.step_batch()
    chip.reset()
    assert chip.batch_size is None
    with pytest.raises(RuntimeError, match="begin_batch"):
        chip.step_batch()
    with pytest.raises(ValueError):
        chip.begin_batch(0)
