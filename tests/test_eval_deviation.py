"""Tests for the synaptic-deviation analysis (Figure 4)."""

import pytest

from repro.core.biased import ProbabilityBiasedLearning
from repro.core.tea import TeaLearning
from repro.eval.deviation import deviation_summary_pair, model_deviation_report


@pytest.fixture(scope="module")
def model_pair(small_architecture, small_dataset):
    tea = TeaLearning(epochs=8, seed=0, batch_size=8).train(
        small_architecture, small_dataset
    )
    biased = ProbabilityBiasedLearning(
        epochs=8, seed=0, batch_size=8, penalty_weight=0.02
    ).train(small_architecture, small_dataset)
    return tea.model, biased.model


def test_deviation_map_shape_and_range(model_pair):
    tea_model, _ = model_pair
    report = model_deviation_report(tea_model, layer=0, core_index=0, rng=0)
    layer = tea_model.architecture.layers[0]
    assert report.deviation_map.shape == (
        len(layer.input_indices[0]),
        layer.neurons_per_core,
    )
    assert report.deviation_map.min() >= 0.0
    assert 0.0 <= report.zero_fraction <= 1.0
    assert 0.0 <= report.above_half_fraction <= 1.0
    assert report.max_deviation <= 1.0 + 1e-9


def test_biased_model_has_smaller_deviation(model_pair):
    tea_model, biased_model = model_pair
    tea_report, biased_report = deviation_summary_pair(tea_model, biased_model, rng=0)
    assert biased_report.zero_fraction > tea_report.zero_fraction
    assert biased_report.mean_deviation < tea_report.mean_deviation
    assert biased_report.above_half_fraction <= tea_report.above_half_fraction


def test_random_core_selection_and_bounds(model_pair):
    tea_model, _ = model_pair
    report = model_deviation_report(tea_model, layer=0, rng=1)
    assert report.deviation_map.size > 0
    with pytest.raises(IndexError):
        model_deviation_report(tea_model, layer=5)
    with pytest.raises(IndexError):
        model_deviation_report(tea_model, layer=0, core_index=99)


def test_deviation_zero_tolerance_counts_near_pole_probabilities(model_pair):
    tea_model, _ = model_pair
    strict = model_deviation_report(tea_model, layer=0, core_index=0, rng=0, zero_tolerance=0.0)
    loose = model_deviation_report(tea_model, layer=0, core_index=0, rng=0, zero_tolerance=0.2)
    assert loose.zero_fraction >= strict.zero_fraction


def test_deviation_summary_is_plain_dict(model_pair):
    tea_model, _ = model_pair
    summary = model_deviation_report(tea_model, layer=0, core_index=0, rng=0).summary()
    assert set(summary) == {
        "zero_fraction",
        "above_half_fraction",
        "mean_deviation",
        "max_deviation",
    }
    assert all(isinstance(value, float) for value in summary.values())
