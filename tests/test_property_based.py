"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.penalties import BiasingPenalty, L1Penalty, ProbabilitySpacePenalty
from repro.core.probability import probabilities_to_weights, weights_to_probabilities
from repro.core.variance import presynaptic_sum_statistics, synaptic_variance
from repro.encoding.stochastic import StochasticEncoder
from repro.eval.comparison import label_points, match_accuracy_levels
from repro.mapping.blocks import stride_blocks
from repro.truenorth.prng import LfsrPrng

probability_arrays = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(0.0, 1.0),
)

weight_arrays = hnp.arrays(
    dtype=float,
    shape=st.tuples(st.integers(1, 8), st.integers(1, 8)),
    elements=st.floats(-1.0, 1.0),
)


@given(weight_arrays, st.floats(0.5, 4.0))
@settings(max_examples=60, deadline=None)
def test_probability_mapping_roundtrip_preserves_expectation(weights, value):
    """Eq. (7): p * c reconstructs any representable weight exactly."""
    scaled = weights * value  # guaranteed within [-c, +c]
    mapping = weights_to_probabilities(scaled, synaptic_value=value)
    assert np.all(mapping.probabilities >= 0.0)
    assert np.all(mapping.probabilities <= 1.0)
    reconstructed = probabilities_to_weights(mapping.probabilities, mapping.synaptic_values)
    assert np.allclose(reconstructed, scaled, atol=1e-9)


@given(probability_arrays, st.floats(0.5, 3.0))
@settings(max_examples=60, deadline=None)
def test_synaptic_variance_bounds(probabilities, value):
    """Eq. (15): 0 <= c^2 p (1-p) <= c^2 / 4, zero exactly at the poles."""
    values = np.full_like(probabilities, value)
    variance = synaptic_variance(probabilities, values)
    assert np.all(variance >= 0.0)
    assert np.all(variance <= value**2 / 4.0 + 1e-12)
    poles = (probabilities == 0.0) | (probabilities == 1.0)
    assert np.all(variance[poles] == 0.0)


@given(
    hnp.arrays(dtype=float, shape=st.integers(1, 16), elements=st.floats(0.0, 1.0)),
    hnp.arrays(dtype=float, shape=st.integers(1, 16), elements=st.floats(0.0, 1.0)),
)
@settings(max_examples=60, deadline=None)
def test_presynaptic_variance_never_negative(p, x):
    n = min(p.size, x.size)
    values = np.ones(n)
    stats = presynaptic_sum_statistics(p[:n], values, x[:n])
    assert stats.variance >= -1e-12
    assert abs(stats.mean) <= n + 1e-9


@given(hnp.arrays(dtype=float, shape=st.integers(1, 30), elements=st.floats(-2.0, 2.0)))
@settings(max_examples=60, deadline=None)
def test_biasing_penalty_nonnegative_and_zero_only_at_poles(weights):
    penalty = BiasingPenalty(centroid=0.5, half_width=0.5)
    value = penalty.penalty_value(weights)
    assert value >= 0.0
    at_poles = np.all(np.isclose(weights, 0.0) | np.isclose(weights, 1.0))
    if value < 1e-12:
        assert at_poles


@given(
    hnp.arrays(dtype=float, shape=st.integers(1, 20), elements=st.floats(-1.0, 1.0)),
    st.floats(0.5, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_probability_space_penalty_invariant_to_synaptic_rescaling(weights, value):
    """Scaling weights and c together leaves the probability-space penalty unchanged."""
    penalty = ProbabilitySpacePenalty(L1Penalty(), synaptic_value=1.0)
    scaled_penalty = ProbabilitySpacePenalty(L1Penalty(), synaptic_value=value)
    assert np.isclose(
        penalty.penalty_value(weights), scaled_penalty.penalty_value(weights * value)
    )


@given(
    hnp.arrays(dtype=float, shape=st.tuples(st.integers(1, 6), st.integers(1, 12)),
               elements=st.floats(0.0, 1.0)),
    st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_stochastic_encoder_rate_matches_expectation(values, spf):
    frames = StochasticEncoder(spf).encode(values, rng=0)
    assert frames.shape == (spf,) + values.shape
    assert frames.min() >= 0 and frames.max() <= 1
    # Values of exactly 0 / 1 are deterministic.
    assert np.all(frames[:, values == 0.0] == 0)
    assert np.all(frames[:, values == 1.0] == 1)


@given(st.integers(1, 2**16 - 1), st.integers(16, 200))
@settings(max_examples=40, deadline=None)
def test_lfsr_period_does_not_collapse(seed, steps):
    prng = LfsrPrng(seed)
    states = {prng.state}
    for _ in range(steps):
        prng.next_bit()
        states.add(prng.state)
    # A maximal-length 16-bit LFSR cannot revisit a state within 200 steps.
    assert len(states) == steps + 1


@given(
    st.integers(17, 40),
    st.integers(1, 16),
)
@settings(max_examples=40, deadline=None)
def test_stride_blocks_cover_all_pixels(size, stride):
    partition = stride_blocks((size, size), (16, 16), stride)
    assert partition.coverage().min() >= 1
    for block in partition.blocks:
        assert len(block) == 256


@given(
    st.lists(st.floats(0.3, 0.99), min_size=1, max_size=8),
    st.lists(st.floats(0.3, 0.99), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_matched_comparison_never_picks_lower_accuracy(base_acc, our_acc):
    baseline = label_points(
        list(range(1, len(base_acc) + 1)), base_acc, [4 * i for i in range(1, len(base_acc) + 1)], "N"
    )
    ours = label_points(
        list(range(1, len(our_acc) + 1)), our_acc, [4 * i for i in range(1, len(our_acc) + 1)], "B"
    )
    for row in match_accuracy_levels(baseline, ours):
        if row.ours is not None:
            assert row.ours.accuracy >= row.baseline.accuracy
            assert row.saved_fraction <= 1.0
