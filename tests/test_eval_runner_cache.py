"""The result store's disk tier, and multi-process sweeps of SweepRunner.

Covers the serve-style workload gaps: finished results persist across
processes through the :class:`~repro.api.ResultMemo` disk tier (one plain
``.npz`` per coalescing key, atomic-rename writes, mtime-LRU bounding), and
the per-repeat evaluation passes can fan out over a ``ProcessPoolExecutor``
without changing a single bit of the results.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import EvalRequest, EvalResult, ResultMemo, Session
from repro.eval.runner import SweepRunner
from repro.serve import EvalService, ModelRegistry, ServeConfig


@pytest.fixture(scope="module")
def trained(tiny_context):
    model = tiny_context.result("tea").model
    dataset = tiny_context.evaluation_dataset()
    return model, dataset


def _runner():
    return SweepRunner(copy_levels=(1, 2), spf_levels=(1, 2), repeats=2)


def _result(value=0.0, copy_levels=(1, 2), spf_levels=(1,), spike_counters=None):
    """A small synthetic result (the disk tier stores any backend's)."""
    grid = (2, len(copy_levels), len(spf_levels), 8, 4)
    return EvalResult(
        backend="chip",
        copy_levels=copy_levels,
        spf_levels=spf_levels,
        scores=np.full(grid, value) + np.arange(4.0),
        accuracy=np.full(grid[:3], 0.5),
        labels=np.arange(8, dtype=np.int64) % 4,
        class_neuron_counts=np.array([3.0, 3.0, 2.0, 2.0]),
        cores=np.array([4 * c for c in copy_levels], dtype=np.int64),
        seed=7,
        repeats=2,
        spike_counters=spike_counters,
    )


def _levels(result):
    """The request-shaped view ``ResultMemo.lookup`` reads (levels only)."""
    return SimpleNamespace(
        copy_levels=result.copy_levels, spf_levels=result.spf_levels
    )


def _key(index=0):
    return ("chip", "fp", "ds", None, index, 2, "stochastic", 2, 1, False)


def _disk_entries(directory):
    return sorted(
        name
        for name in os.listdir(directory)
        if name.startswith("result-") and name.endswith(".npz")
    )


def _fill(memo, count):
    for index in range(count):
        memo.store(_key(index), _result(float(index)))


def test_disk_cache_round_trip(tmp_path):
    counters = np.arange(2 * 2 * 3 * 8, dtype=np.int64).reshape(2, 2, 3, 8)
    stored = _result(spike_counters=counters)
    ResultMemo(cache_dir=str(tmp_path)).store(_key(), stored)
    # A fresh store over the directory reads the entry back bit for bit.
    memo = ResultMemo(cache_dir=str(tmp_path))
    assert memo.lookup(_key(1), _levels(stored)) is None
    loaded = memo.lookup(_key(), _levels(stored))
    assert loaded is not None
    for name in ("scores", "accuracy", "labels", "class_neuron_counts", "cores"):
        assert getattr(loaded, name).dtype == getattr(stored, name).dtype
        assert np.array_equal(getattr(loaded, name), getattr(stored, name))
    assert np.array_equal(loaded.spike_counters, counters)
    assert (loaded.backend, loaded.copy_levels, loaded.spf_levels) == (
        "chip",
        (1, 2),
        (1,),
    )
    assert (loaded.seed, loaded.repeats) == (7, 2)
    assert memo.hits == 1 and memo.misses == 1
    assert len(_disk_entries(tmp_path)) == 1
    # No temporary files left behind by the atomic write.
    assert all(not name.startswith(".tmp-") for name in os.listdir(tmp_path))


def test_disk_cache_treats_corrupt_entry_as_miss(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path))
    memo.store(_key(), _result())
    with open(memo._path(_key()), "wb") as handle:
        handle.write(b"torn write, not a zip file")
    fresh = ResultMemo(cache_dir=str(tmp_path))
    assert fresh.lookup(_key(), _levels(_result())) is None
    assert fresh.misses == 1
    # Recomputing overwrites the corrupt entry and serving works again.
    fresh.store(_key(), _result())
    again = ResultMemo(cache_dir=str(tmp_path))
    assert again.lookup(_key(), _levels(_result())) is not None


def test_disk_entry_written_under_another_key_is_a_miss(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path))
    memo.store(_key(0), _result())
    # A valid entry sitting at another key's path (a hash collision, a
    # copied file) records the key it was written under: not served.
    shutil.copyfile(memo._path(_key(0)), memo._path(_key(1)))
    fresh = ResultMemo(cache_dir=str(tmp_path))
    assert fresh.lookup(_key(1), _levels(_result())) is None
    assert fresh.hits == 0 and fresh.misses == 1
    assert fresh.lookup(_key(0), _levels(_result())) is not None


def test_disk_cache_prune_evicts_oldest_first(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path))
    _fill(memo, 4)
    paths = [memo._path(_key(i)) for i in range(4)]
    # Make the eviction order unambiguous regardless of write timing.
    for index, path in enumerate(paths):
        os.utime(path, (index, index))
    keep_bytes = os.path.getsize(paths[2]) + os.path.getsize(paths[3])
    drop_bytes = os.path.getsize(paths[0]) + os.path.getsize(paths[1])
    freed = memo.prune(max_bytes=keep_bytes)
    assert freed == drop_bytes
    assert not os.path.exists(paths[0]) and not os.path.exists(paths[1])
    assert os.path.exists(paths[2]) and os.path.exists(paths[3])


def test_disk_cache_prune_keeps_newest_even_when_oversized(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path))
    _fill(memo, 2)
    paths = [memo._path(_key(i)) for i in range(2)]
    os.utime(paths[0], (1, 1))
    os.utime(paths[1], (2, 2))
    memo.prune(max_bytes=1)  # smaller than any single entry
    assert not os.path.exists(paths[0])
    assert os.path.exists(paths[1])  # the newest entry always survives
    assert len(_disk_entries(tmp_path)) == 1


def test_disk_cache_max_bytes_enforced_on_put(tmp_path):
    memo = ResultMemo(cache_dir=str(tmp_path), max_bytes=1)
    _fill(memo, 3)
    # Every write prunes back down to the newest entry.
    assert _disk_entries(tmp_path) == [os.path.basename(memo._path(_key(2)))]
    fresh = ResultMemo(cache_dir=str(tmp_path))
    assert fresh.lookup(_key(2), _levels(_result())) is not None


def test_sweep_runner_threads_cache_max_bytes(tiny_context, tmp_path):
    """A replica's ``cache_max_bytes`` bounds the store its sweeps fill."""
    registry = ModelRegistry.from_context(tiny_context, methods=("tea",))
    service = EvalService(
        registry, ServeConfig(cache_dir=str(tmp_path), cache_max_bytes=1)
    )
    memo = service.result_memo
    assert memo.cache_dir == str(tmp_path) and memo.max_bytes == 1
    session = Session(backend="vectorized", result_memo=memo)
    for seed in (0, 1):
        session.evaluate(
            EvalRequest(
                model=registry.model("tea"),
                dataset=registry.dataset("test"),
                copy_levels=(1,),
                spf_levels=(1,),
                repeats=1,
                seed=seed,
                max_samples=12,
            )
        )
    # The bound keeps the directory at a single (the newest) entry.
    assert len(_disk_entries(tmp_path)) == 1


def test_sweep_runner_serves_second_runner_from_disk(trained, tmp_path):
    model, dataset = trained
    request = EvalRequest(
        model=model,
        dataset=dataset,
        copy_levels=(1, 2),
        spf_levels=(1, 2),
        repeats=2,
        seed=0,
        max_samples=12,
    )
    first = ResultMemo(cache_dir=str(tmp_path))
    computed = Session(backend="vectorized", result_memo=first).evaluate(request)
    assert first.misses == 1 and len(_disk_entries(tmp_path)) == 1

    second = ResultMemo(cache_dir=str(tmp_path))
    session = Session(backend="vectorized", result_memo=second)
    served = session.evaluate(request)
    assert second.hits == 1 and session.stats.engine_passes == 0
    assert np.array_equal(computed.scores, served.scores)

    # The disk entry also seeds the memory tier: with the file gone, the
    # next call is still served without an engine pass.
    for name in _disk_entries(tmp_path):
        os.remove(os.path.join(tmp_path, name))
    session.evaluate(request)
    assert second.hits == 2 and session.stats.engine_passes == 0


def test_disk_cache_get_refreshes_mtime_for_lru(tmp_path):
    _fill(ResultMemo(cache_dir=str(tmp_path)), 2)
    memo = ResultMemo(cache_dir=str(tmp_path))
    old = memo._path(_key(0))
    new = memo._path(_key(1))
    os.utime(old, (1, 1))
    os.utime(new, (2, 2))
    # Reading the older entry marks it recently used...
    assert memo.lookup(_key(0), _levels(_result())) is not None
    memo.prune(max_bytes=os.path.getsize(old))
    # ...so the other entry is the one evicted.
    assert os.path.exists(old) and not os.path.exists(new)


def test_disk_cache_rejects_nonpositive_max_bytes(tmp_path):
    with pytest.raises(ValueError):
        ResultMemo(cache_dir=str(tmp_path), max_bytes=0)
    with pytest.raises(ValueError):
        ResultMemo(max_bytes=1024)  # a bound needs a disk tier to bound


def test_disk_tier_keeps_the_wider_entry(tmp_path):
    wide = _result(copy_levels=(1, 2), spf_levels=(1, 2))
    ResultMemo(cache_dir=str(tmp_path)).store(_key(), wide)
    # Another process storing a narrower result under the same key must
    # not shrink what the directory can serve.
    ResultMemo(cache_dir=str(tmp_path)).store(_key(), _result(copy_levels=(2,)))
    fresh = ResultMemo(cache_dir=str(tmp_path))
    loaded = fresh.lookup(_key(), _levels(wide))
    assert loaded is not None
    assert np.array_equal(loaded.scores, wide.scores)


def test_fingerprint_memo_freezes_hashed_arrays(trained):
    """After fingerprinting, in-place weight mutation raises loudly.

    The fingerprint is memoized by object identity; freezing the hashed
    arrays is what keeps that sound (a mutated model can never silently
    reuse its pre-mutation cache entries).
    """
    from repro.eval.runner import model_fingerprint

    model, _ = trained
    model_fingerprint(model)
    with pytest.raises(ValueError):
        model.block_weights[0][0][0, 0] = 123.0


def test_evaluation_view_tracks_max_samples(trained):
    model, dataset = trained
    runner = SweepRunner(copy_levels=(1,), spf_levels=(1,), repeats=1, max_samples=20)
    assert runner._evaluation_view(dataset).sample_count == 20
    runner.max_samples = 10
    assert runner._evaluation_view(dataset).sample_count == 10


def test_workers_bit_identical_to_serial(trained):
    model, dataset = trained
    serial = _runner().cumulative_scores(model, dataset, rng=7)
    parallel = _runner().cumulative_scores(model, dataset, rng=7, workers=2)
    assert len(serial) == len(parallel) == 2
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


def test_workers_run_produces_identical_sweep(trained):
    model, dataset = trained
    serial = _runner().run(model, dataset, rng=3, label="serial")
    parallel = _runner().run(model, dataset, rng=3, label="parallel", workers=2)
    assert np.array_equal(serial.mean_accuracy, parallel.mean_accuracy)
    assert np.array_equal(serial.std_accuracy, parallel.std_accuracy)


_SUBPROCESS_SCRIPT = """
import sys
import numpy as np
from repro.api import EvalRequest, ResultMemo, Session
from repro.experiments.runner import ExperimentContext

cache_dir, out_path = sys.argv[1], sys.argv[2]
context = ExperimentContext(
    train_size=120, test_size=60, epochs=2, eval_samples=30, repeats=1, seed=0
)
memo = ResultMemo(cache_dir=cache_dir)
session = Session(backend="vectorized", result_memo=memo)
result = session.evaluate(
    EvalRequest(
        model=context.result("tea").model,
        dataset=context.evaluation_dataset(),
        copy_levels=(1, 2),
        spf_levels=(1, 2),
        repeats=1,
        seed=0,
    )
)
np.savez(out_path, scores=result.scores)
print("HITS", memo.hits, "MISSES", memo.misses, "PASSES", session.stats.engine_passes)
"""


def test_disk_cache_shared_across_fresh_processes(tmp_path):
    """Two fresh interpreter processes: identical tensors, second hits disk."""
    outputs = []
    for run in range(2):
        out_path = str(tmp_path / f"scores-{run}.npz")
        result = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_SCRIPT, str(tmp_path / "cache"), out_path],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        outputs.append((result.stdout.strip().splitlines()[-1], out_path))
    assert outputs[0][0] == "HITS 0 MISSES 1 PASSES 1"
    assert outputs[1][0] == "HITS 1 MISSES 0 PASSES 0"
    with np.load(outputs[0][1]) as first, np.load(outputs[1][1]) as second:
        assert np.array_equal(first["scores"], second["scores"])
