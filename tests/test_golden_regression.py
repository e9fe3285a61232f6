"""Seeded golden-fixture regression tests: every backend diffs against
committed ground truth.

The fixture ``tests/goldens/chip_multicopy_goldens.npz`` holds, for one
fixed hand-built 3-copy, 2-layer network and one fixed binary spike volume:

* the multi-copy chip engine's per-copy class counts and per-core spike
  counters (deterministic and stochastic-synapse mode, the latter with
  pinned per-copy LFSR seeds and final register states);
* the vectorized engine's accumulated class-mean scores;
* the per-corelet reference loop's accumulated scores.

Before the fixture is consulted, the chip records are recomputed by the
scalar oracle (``tests/chip_oracle.py``) one (copy, sample) at a time, so
the committed chip numbers are pinned by an independent simulator as well
as by history.

Every quantity is either an exact integer count or an exact small-rational
float (integer counts divided by ``n_k``: products and sums are exact in
float64 and IEEE division is correctly rounded), so the committed arrays
are platform- and BLAS-independent — any mismatch is *our* numerical
drift, and this test fails loudly instead of letting it slide.

Regenerate deliberately after an intentional semantics change::

    PYTHONPATH=src python -m pytest tests/test_golden_regression.py --regen-goldens
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.eval.engine import (
    VectorizedEvaluator,
    class_counts,
    class_merge_weights,
    forward_spikes_reference,
)

from chip_oracle import lfsr_state_after, simulate
from one_chip import program_one_chip
from test_chip_multicopy_equivalence import _STOCHASTIC, random_deployed_copies

GOLDEN_PATH = Path(__file__).parent / "goldens" / "chip_multicopy_goldens.npz"

#: bump when the fixture layout (not the numerics) changes shape.
_SCHEMA = 1

_SEED = 20260730
_COPIES = 3
_COPY_SEEDS = [101, 7321, 54321]


def _scenario():
    """The fixed model/seed the goldens are pinned on."""
    rng = np.random.default_rng(_SEED)
    copies = random_deployed_copies(
        rng, _COPIES, depth=2, fractional_probabilities=True
    )
    volumes = (
        rng.random((6, 4, copies[0].corelet_network.input_dim)) < 0.45
    ).astype(np.int8)
    return copies, volumes


def _chip_record(copies, volumes, stochastic: bool):
    neuron_config = _STOCHASTIC if stochastic else None
    one = program_one_chip(copies, neuron_config=neuron_config)
    counts = one.run(volumes, copy_seeds=_COPY_SEEDS if stochastic else None)
    chip = one.chip
    order = [cid for layer in one.core_ids for cid in layer]
    counters = np.stack(
        [chip.core(k).multicopy_spike_counts for k in order], axis=1
    )
    states = np.array(
        [
            [chip.core(k).copy_prngs[c].state for k in order]
            for c in range(len(copies))
        ],
        dtype=np.int64,
    )
    return counts, counters, states


def _oracle_record(copies, volumes, stochastic: bool):
    """:func:`_chip_record` recomputed by the per-sample scalar oracle."""
    seeds = _COPY_SEEDS if stochastic else [0] * len(copies)
    runs = [
        simulate(
            copy,
            volumes,
            neuron_config=_STOCHASTIC if stochastic else None,
            core_seed=seed,
        )
        for copy, seed in zip(copies, seeds)
    ]
    # the copy PRNGs draw once per executed tick in stochastic mode only
    draws = max(run.ticks for run in runs) if stochastic else 0
    cores = runs[0].core_spikes.shape[1]
    states = np.array(
        [[lfsr_state_after(seed + k + 1, draws) for k in range(cores)] for seed in seeds],
        dtype=np.int64,
    )
    return (
        np.stack([run.class_counts for run in runs]),
        np.stack([run.core_spikes.T for run in runs]),
        states,
    )


def _vectorized_scores(copies, volumes):
    evaluator = VectorizedEvaluator(copies)
    total = None
    for t in range(volumes.shape[1]):
        scores = evaluator.class_scores(volumes[:, t, :].astype(float))
        total = scores if total is None else total + scores
    return total


def _reference_scores(copies, volumes):
    network = copies[0].corelet_network
    indicator = class_merge_weights(network)
    n_k = class_counts(network)
    total = np.zeros(
        (len(copies), volumes.shape[0], network.num_classes), dtype=float
    )
    for index, copy in enumerate(copies):
        for t in range(volumes.shape[1]):
            spikes = forward_spikes_reference(copy, volumes[:, t, :].astype(float))
            total[index] += (spikes @ indicator) / n_k
    return total


def _compute_goldens():
    copies, volumes = _scenario()
    det_counts, det_counters, _ = _chip_record(copies, volumes, stochastic=False)
    sto_counts, sto_counters, sto_states = _chip_record(
        copies, volumes, stochastic=True
    )
    return {
        "schema": np.array(_SCHEMA),
        "chip_class_counts": det_counts,
        "chip_spike_counters": det_counters,
        "chip_stochastic_class_counts": sto_counts,
        "chip_stochastic_spike_counters": sto_counters,
        "chip_stochastic_lfsr_states": sto_states,
        "vectorized_scores": _vectorized_scores(copies, volumes),
        "reference_scores": _reference_scores(copies, volumes),
    }


def test_backends_match_committed_goldens(regen_goldens):
    computed = _compute_goldens()

    # Internal consistency before touching the fixture: the chip's integer
    # counts and the functional engines must already agree (counts == n_k *
    # class-mean scores), and the two functional engines must be identical.
    copies, volumes = _scenario()
    for stochastic, prefix in ((False, "chip_"), (True, "chip_stochastic_")):
        counts, counters, states = _oracle_record(copies, volumes, stochastic)
        assert np.array_equal(computed[prefix + "class_counts"], counts)
        assert np.array_equal(computed[prefix + "spike_counters"], counters)
    assert np.array_equal(computed["chip_stochastic_lfsr_states"], states)
    n_k = class_counts(copies[0].corelet_network)
    assert np.array_equal(
        computed["vectorized_scores"], computed["reference_scores"]
    )
    assert np.array_equal(
        computed["chip_class_counts"],
        np.rint(computed["vectorized_scores"] * n_k).astype(np.int64),
    )
    assert computed["chip_class_counts"].sum() > 0
    assert computed["chip_stochastic_class_counts"].sum() > 0

    if regen_goldens:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(GOLDEN_PATH, **computed)
        pytest.skip(f"regenerated {GOLDEN_PATH.name}; commit the new fixture")

    assert GOLDEN_PATH.exists(), (
        f"missing golden fixture {GOLDEN_PATH}; run pytest with "
        "--regen-goldens once and commit the file"
    )
    with np.load(GOLDEN_PATH) as golden:
        assert int(golden["schema"]) == _SCHEMA
        for key, value in computed.items():
            stored = golden[key]
            assert stored.shape == value.shape, (
                f"golden {key!r} shape drifted: {stored.shape} -> {value.shape}"
            )
            assert np.array_equal(stored, value), (
                f"golden {key!r} drifted from the committed fixture; if the "
                "change is intentional, regenerate with --regen-goldens and "
                "commit"
            )


def test_goldens_are_committed():
    """The fixture must live in the repo (a fresh checkout must not skip)."""
    assert GOLDEN_PATH.exists()
