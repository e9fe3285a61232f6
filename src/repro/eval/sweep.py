"""Accuracy sweeps over the (copies, spikes-per-frame) grid (Figures 7-8).

Evaluating every grid point independently would redo most of the work: the
class scores of a 16-copy, 4-spf deployment already contain the scores of
every smaller configuration (just sum fewer copies / fewer frames).  The
sweep therefore evaluates the largest configuration once per repeat — on the
vectorized engine (:mod:`repro.eval.engine`), via
:class:`repro.eval.runner.SweepRunner` — and derives every grid point from
cumulative sums, exactly reproducing what an independent evaluation of each
point would measure for nested subsets of copies and frames.

:func:`accuracy_sweep` is the stable functional entry point; evaluate
through :class:`repro.api.Session` with a shared
:class:`~repro.api.ResultMemo` to reuse finished sweeps of the same model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.model import TrueNorthModel
from repro.datasets.base import Dataset
from repro.eval.runner import SweepRunner
from repro.utils.rng import RngLike


@dataclass(frozen=True)
class SweepResult:
    """Accuracy over a (copies, spf) grid.

    Attributes:
        copy_levels: evaluated numbers of network copies (ascending).
        spf_levels: evaluated spikes-per-frame values (ascending).
        mean_accuracy: array of shape (len(copy_levels), len(spf_levels)).
        std_accuracy: matching standard deviations over the repeats.
        cores: total cores occupied at each copy level (1-D array).
        repeats: number of repeats averaged at each grid point.
        label: free-form name of the swept model (e.g. "tea" / "biased").
    """

    copy_levels: Tuple[int, ...]
    spf_levels: Tuple[int, ...]
    mean_accuracy: np.ndarray
    std_accuracy: np.ndarray
    cores: np.ndarray
    repeats: int
    label: str = ""

    def accuracy_at(self, copies: int, spikes_per_frame: int) -> float:
        """Mean accuracy of one grid point."""
        row = self.copy_levels.index(copies)
        col = self.spf_levels.index(spikes_per_frame)
        return float(self.mean_accuracy[row, col])

    def as_rows(self) -> list:
        """Flatten the grid into (copies, spf, cores, accuracy, std) rows."""
        rows = []
        for i, copies in enumerate(self.copy_levels):
            for j, spf in enumerate(self.spf_levels):
                rows.append(
                    (
                        copies,
                        spf,
                        int(self.cores[i]),
                        float(self.mean_accuracy[i, j]),
                        float(self.std_accuracy[i, j]),
                    )
                )
        return rows


def accuracy_sweep(
    model: TrueNorthModel,
    dataset: Dataset,
    copy_levels: Sequence[int] = (1, 2, 4, 8, 16),
    spf_levels: Sequence[int] = (1, 2, 3, 4),
    repeats: int = 3,
    rng: RngLike = None,
    max_samples: Optional[int] = None,
    label: str = "",
) -> SweepResult:
    """Measure deployed accuracy across a grid of duplication levels.

    Thin functional wrapper over :class:`repro.eval.runner.SweepRunner`.

    Args:
        model: trained model to deploy.
        dataset: evaluation dataset.
        copy_levels: spatial duplication levels to report (ascending).
        spf_levels: temporal duplication levels to report (ascending).
        repeats: independent repeats averaged per grid point.
        rng: root randomness.
        max_samples: optional cap on evaluated samples.
        label: name recorded in the result.

    Returns:
        a :class:`SweepResult` covering the full grid.
    """
    runner = SweepRunner(
        copy_levels=copy_levels,
        spf_levels=spf_levels,
        repeats=repeats,
        max_samples=max_samples,
    )
    return runner.run(model, dataset, rng=rng, label=label)


def accuracy_boost(ours: SweepResult, baseline: SweepResult) -> np.ndarray:
    """Accuracy improvement grid ``ours - baseline`` (Figure 8).

    Both sweeps must cover the same grid.
    """
    if ours.copy_levels != baseline.copy_levels or ours.spf_levels != baseline.spf_levels:
        raise ValueError("sweeps must cover the same (copies, spf) grid")
    return ours.mean_accuracy - baseline.mean_accuracy
