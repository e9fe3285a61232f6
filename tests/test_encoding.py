"""Tests for the stochastic spike encoder and the spike-count decoder."""

import numpy as np
import pytest

from repro.encoding.decoder import SpikeCountDecoder
from repro.encoding.stochastic import StochasticEncoder


# --------------------------------------------------------------- stochastic
def test_stochastic_encoder_shape_and_rate():
    encoder = StochasticEncoder(spikes_per_frame=8)
    values = np.full((50, 20), 0.3)
    frames = encoder.encode(values, rng=0)
    assert frames.shape == (8, 50, 20)
    assert frames.dtype == np.uint8
    assert abs(frames.mean() - 0.3) < 0.02
    assert np.allclose(encoder.expected_rate(values), 0.3 * 8)


def test_stochastic_encoder_extremes_are_deterministic():
    encoder = StochasticEncoder(spikes_per_frame=4)
    values = np.array([[0.0, 1.0]])
    frames = encoder.encode(values, rng=0)
    assert np.all(frames[:, 0, 0] == 0)
    assert np.all(frames[:, 0, 1] == 1)


def test_stochastic_encoder_validation():
    with pytest.raises(ValueError):
        StochasticEncoder(0)
    encoder = StochasticEncoder(1)
    with pytest.raises(ValueError):
        encoder.encode(np.array([0.5, 0.5]))  # not 2-D
    with pytest.raises(ValueError):
        encoder.encode(np.array([[1.5]]))


# --------------------------------------------------------------- decoder
def test_spike_count_decoder_scores_and_prediction():
    decoder = SpikeCountDecoder(class_assignment=np.array([0, 1, 0, 1]), num_classes=2)
    counts = np.array([[4, 1, 2, 1], [0, 3, 0, 5]])
    scores = decoder.class_scores(counts)
    assert np.allclose(scores, [[3.0, 1.0], [0.0, 4.0]])
    assert list(decoder.predict(counts)) == [0, 1]
    single = decoder.class_scores(np.array([2, 0, 2, 0]))
    assert np.allclose(single, [2.0, 0.0])


def test_spike_count_decoder_validation():
    with pytest.raises(ValueError):
        SpikeCountDecoder(np.array([0, 1]), num_classes=1)
    with pytest.raises(ValueError):
        SpikeCountDecoder(np.array([0, 2]), num_classes=2)
    with pytest.raises(ValueError):
        SpikeCountDecoder(np.array([0, 0]), num_classes=2)  # class 1 empty
    decoder = SpikeCountDecoder(np.array([0, 1]), num_classes=2)
    with pytest.raises(ValueError):
        decoder.class_scores(np.zeros((2, 3)))
