"""Figure 8: accuracy boost of probability-biased learning over Tea learning.

The boost surface is simply the difference of the two Figure 7 surfaces; the
paper's shape claim is that the gain is largest at the smallest duplication
level (1 copy, 1 spf) and shrinks as duplication washes the sampling variance
out.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.api import Session
from repro.eval.sweep import accuracy_boost
from repro.experiments.figure7 import run_figure7
from repro.experiments.runner import ExperimentContext


def run_figure8(
    context: Optional[ExperimentContext] = None,
    copy_levels: Sequence[int] = (1, 2, 4, 8, 16),
    spf_levels: Sequence[int] = (1, 2, 3, 4),
    figure7_report: Optional[Dict[str, object]] = None,
    session: Optional[Session] = None,
    backend: str = "vectorized",
) -> Dict[str, object]:
    """Regenerate Figure 8 (the boost surface).

    Reuses a Figure 7 report when provided (the two figures share their
    sweeps); otherwise runs the sweeps itself through
    :class:`repro.api.Session`.  Without a report, the sweeps are only
    served from earlier results when ``session`` holds a
    :class:`repro.api.ResultMemo` that saw them; a fresh session
    re-evaluates.
    """
    context = context or ExperimentContext()
    report = figure7_report or run_figure7(
        context,
        copy_levels=copy_levels,
        spf_levels=spf_levels,
        session=session,
        backend=backend,
    )
    boost = accuracy_boost(report["_sweep_biased"], report["_sweep_tea"])
    max_index = np.unravel_index(np.argmax(boost), boost.shape)
    return {
        "copy_levels": report["copy_levels"],
        "spf_levels": report["spf_levels"],
        "boost": boost.tolist(),
        "max_boost": float(boost.max()),
        "max_boost_at": {
            "copies": report["copy_levels"][max_index[0]],
            "spf": report["spf_levels"][max_index[1]],
        },
        "boost_at_minimum_duplication": float(boost[0, 0]),
    }
