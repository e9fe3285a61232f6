"""Client-to-engine benchmark of the serve tier.

Run from the repository root::

    python3 perfbench/run.py --workload vector-fresh --seed 1 --seconds 20 --trace 0

It starts the servers through their public CLI as child processes
(``python -m repro.serve --methods tea`` with every other flag at its
default, and ``python -m repro.serve front`` over that one replica on
``repeat-front``), drives one of the closed-loop workloads of
``workloads.py`` from two client threads of this process for ``--seconds``,
checks every answer, and prints a per-run record followed, as the last
line, by ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``:

* ``latency_p50_ms`` / ``latency_p90_ms`` -- client-observed time from the
  ``ServeClient.evaluate_payload`` call to a decoded ``EvalResult``;
* ``throughput_rps`` -- requests completed within the timed window, per
  second from its start to the last of them;
* ``success_rate`` -- completed / attempted, i.e. 1 - error rate (a 429, a
  5xx or a transport error fails a request; a wrong answer fails the run).
  The record also carries ``error_rate``; the metric is the complement
  because a metric that reads 0 has no relative spread;
* ``setup_s`` -- from launching the first server until every server is
  healthy, the front's ring holds the replica and, on ``repeat-front``, the
  warm set is served; the median of ``SETUPS`` set-ups;
* ``server_rss_mb`` -- peak resident memory (``VmHWM``) summed over the
  server processes at the end of the run.

``--trace 1`` starts the servers through ``launch.py`` instead, which wraps
the layer functions of ``spans.py``, and reports its ``per_layer``
metrics.  One window of ``--seconds / 2`` runs
untraced, then one of ``--seconds / 2`` with every request traced; the
per-layer metrics come from the traced window, and ``trace.overhead_ms`` is
the traced minus the untraced ``latency_p50_ms``.

Correctness: every answer is checked on its face (levels, seed, backend,
shape, labels); a fixed sample is re-evaluated afterwards with an in-process
``repro.api.Session`` whose model was trained with the servers' flags and
compared at ``atol=0``; on ``repeat-front`` every answer must equal the
first answer to the same request and the replica's engine passes must not
move.  The replica's and the front's ``/metrics`` must conserve requests,
and the requests this process sent must equal those the outermost server
received.  Any violation fails the run.

Scratch files (server logs, span files, the cached reference model) live
under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    WORKLOADS,
    Workload,
    answer_problems,
    kind_of,
    mismatches,
    workload,
)

#: set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2
CLIENTS = 2
BOOT_TIMEOUT_S = 150.0

#: ``/metrics`` of the replica and of the front (``None`` without one).
Snapshot = Tuple[Dict, Optional[Dict]]


class RunError(RuntimeError):
    """The benchmark could not run (as opposed to: the program answered wrong)."""


def metric_units(kind: str) -> Dict[str, str]:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` names; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def serve_args(testbench: int) -> List[str]:
    return ["--port", "0", "--methods", "tea", "--testbench", str(testbench)]


# ----------------------------------------------------------------------
# the in-process reference the correctness gate compares against
# ----------------------------------------------------------------------
def reference_registry(testbench: int):
    """The servers' model, trained here with the flags the CLI trains with.

    Training is seeded, so the result depends only on the flags and the
    program's source; it is cached under ``.bench_build`` by a hash of both.
    """
    import numpy as np
    from repro.experiments.runner import ExperimentContext
    from repro.serve.__main__ import build_parser
    from repro.serve.server import ModelRegistry

    args = build_parser().parse_args(serve_args(testbench))
    flags = {
        "testbench": args.testbench,
        "train_size": args.train_size,
        "test_size": args.test_size,
        "epochs": args.epochs,
        "eval_samples": args.eval_samples,
        "seed": args.seed,
    }
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    digest = hashlib.sha256(
        repr((sorted(flags.items()), methods, sys.version, np.__version__)).encode()
    )
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    cached = WORK / f"reference-tb{testbench}-{digest.hexdigest()[:24]}.pickle"
    if cached.is_file():
        with open(cached, "rb") as handle:
            return pickle.load(handle)
    registry = ModelRegistry.from_context(ExperimentContext(**flags), methods=methods)
    for stale in WORK.glob(f"reference-tb{testbench}-*.pickle"):
        stale.unlink()
    partial = cached.with_suffix(".partial")
    with open(partial, "wb") as handle:
        pickle.dump(registry, handle)
    os.replace(partial, cached)
    return registry


# ----------------------------------------------------------------------
# the servers
# ----------------------------------------------------------------------
class ServeTier:
    """One set-up: a replica and, on ``repeat-front``, a front over it."""

    def __init__(self, load: Workload, scratch: Path, traced: bool) -> None:
        self.load = load
        self.scratch = scratch
        self.traced = traced
        self.procs: List[Tuple[str, subprocess.Popen]] = []
        self.port = 0
        self.replica_port = 0
        self.sent = 0
        self.warm_answers: List[object] = []

    def _launch(self, name: str, argv: List[str]) -> int:
        if self.traced:
            spans_out = str(self.scratch / f"{name}.spans.json")
            command = [sys.executable, str(HERE / "launch.py"), spans_out, *argv]
        else:
            command = [sys.executable, "-m", "repro.serve", *argv]
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        log = self.scratch / f"{name}.log"
        with open(log, "w", encoding="utf-8") as out:
            proc = subprocess.Popen(
                command, cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT
            )
        self.procs.append((name, proc))
        pattern = re.compile(r" on http://[0-9.]+:(\d+)")
        deadline = time.perf_counter() + BOOT_TIMEOUT_S
        while time.perf_counter() < deadline:
            found = pattern.search(log.read_text(encoding="utf-8"))
            if found:
                return int(found.group(1))
            if proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RunError(f"{name} did not start:\n{log.read_text(encoding='utf-8')[-2000:]}")

    def start(self) -> float:
        """Start the servers and serve the warm set; returns the seconds
        that took (the set-up time)."""
        from repro.serve.client import ServeClient

        started = time.perf_counter()
        self.replica_port = self.port = self._launch(
            "replica", serve_args(self.load.testbench)
        )
        replica = ServeClient(port=self.replica_port)
        _wait(lambda: replica.health().get("status") == "ok", "replica health")
        if self.load.front:
            name = f"127.0.0.1:{self.replica_port}"
            self.port = self._launch("front", ["front", "--port", "0", "--replicas", name])
            front = ServeClient(port=self.port)
            _wait(
                lambda: front.health().get("healthy") == 1
                and front.fleet().get("assignments", {}).get("tea") == name,
                "front ring",
            )
        client = ServeClient(port=self.port)
        self.warm_answers = []
        for request in self.load.warm_set:
            self.sent += 1
            self.warm_answers.append(client.evaluate_payload(request))
        return time.perf_counter() - started

    def stop(self) -> None:
        """SIGINT every server (the CLI closes its server and returns)."""
        for _, proc in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for _, proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for _, proc in self.procs:
            status = Path(f"/proc/{proc.pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return total_kb / 1024.0

    def metrics(self) -> Snapshot:
        from repro.serve.client import ServeClient

        replica = ServeClient(port=self.replica_port).metrics()
        front = ServeClient(port=self.port).metrics() if self.load.front else None
        return replica, front

    def spans(self) -> Tuple[List, List[str]]:
        spans: List = []
        missing: List[str] = []
        for name, _ in self.procs:
            with open(self.scratch / f"{name}.spans.json", encoding="utf-8") as handle:
                dumped = json.load(handle)
            spans.extend(dumped["spans"])
            missing.extend(dumped["missing"])
        return spans, missing


def _wait(ready, what: str, timeout: float = 30.0) -> None:
    from repro.serve.client import ServeError

    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            if ready():
                return
        except ServeError:
            pass
        time.sleep(0.02)
    raise RunError(f"timed out waiting for {what}")


# ----------------------------------------------------------------------
# the load
# ----------------------------------------------------------------------
class Window:
    """The outcome of one closed-loop window, by request index."""

    def __init__(self) -> None:
        self.kinds: Dict[int, str] = {}
        self.latencies: Dict[int, float] = {}
        self.response_bytes: Dict[int, int] = {}
        self.errors: Dict[int, str] = {}
        self.problems: Dict[int, List[str]] = {}
        self.kept: Dict[int, object] = {}
        self.started = time.perf_counter()
        #: requests that completed before the window closed, and when the
        #: last of them did.
        self.in_time = 0
        self.last_in_time = self.started

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    @property
    def completed(self) -> int:
        return len(self.latencies)


class Driver:
    """Closed-loop clients against the outermost server of one set-up."""

    def __init__(self, tier: ServeTier, labels: Dict[str, object], keep: List[int]) -> None:
        from spans import response_bytes_counter

        self.tier = tier
        self.load = tier.load
        self.labels = labels
        self.keep = set(keep)
        self.counter = response_bytes_counter()
        self.next_index = 0
        self.lock = threading.Lock()

    def warm_up(self) -> None:
        from repro.serve.client import ServeClient

        client = ServeClient(port=self.tier.port)
        for request in self.load.warmup:
            self.tier.sent += 1
            client.evaluate_payload(request)

    def window(self, seconds: float, recorder=None) -> Window:
        """Run ``CLIENTS`` threads until ``seconds`` have passed.

        With a ``recorder`` every request carries its index as trace id.
        """
        window = Window()
        deadline = window.started + seconds
        threads = [
            threading.Thread(target=self._client, args=(window, deadline, recorder))
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return window

    def _client(self, window: Window, deadline: float, recorder) -> None:
        from repro.serve.client import ServeClient

        client = ServeClient(port=self.tier.port)
        while True:
            with self.lock:
                if time.perf_counter() >= deadline:
                    return
                index = self.next_index
                self.next_index += 1
                self.tier.sent += 1
            request = self.load.request(index)
            kind = kind_of(request)
            if recorder is not None:
                recorder.local.ids = (str(index),)
            self.counter.received = 0
            started = time.perf_counter()
            try:
                result = client.evaluate_payload(request)
            except Exception as error:  # a failed request, whatever the cause
                with self.lock:
                    window.kinds[index] = kind
                    window.errors[index] = f"{type(error).__name__}: {error}"
                continue
            finally:
                if recorder is not None:
                    recorder.local.ids = None
            finished = time.perf_counter()
            problems = answer_problems(request, result, self.labels[kind])
            if self.load.warm_set:
                first = self.tier.warm_answers[index % len(self.tier.warm_answers)]
                problems += [
                    f"{field} differs from the first answer"
                    for field in mismatches(result, first)
                ]
            with self.lock:
                window.kinds[index] = kind
                window.latencies[index] = finished - started
                window.response_bytes[index] = self.counter.received
                if finished <= deadline:
                    window.in_time += 1
                    window.last_in_time = max(window.last_in_time, finished)
                if problems:
                    window.problems[index] = problems
                if index in self.keep:
                    window.kept[index] = result


# ----------------------------------------------------------------------
# gates
# ----------------------------------------------------------------------
def correctness_gate(load: Workload, window: Window, registry) -> Dict[str, object]:
    """Re-evaluate the kept answers in-process and compare them at atol=0;
    collect the problems found on the face of every answer."""
    from repro.api import Session
    from repro.serve.codec import decode_request, to_eval_request

    session = Session()
    violations = []
    for index, served in sorted(window.kept.items()):
        wire = decode_request(load.request(index))
        reference = session.evaluate(to_eval_request(wire, registry), backend=wire.backend)
        differ = mismatches(served, reference)
        if differ:
            violations.append(f"request {index}: {', '.join(differ)} differ from the reference")
    for index, problems in sorted(window.problems.items()):
        violations.extend(f"request {index}: {problem}" for problem in problems)
    return {"re_evaluated": len(window.kept), "violations": violations}


def conservation_gate(tier: ServeTier, first: Snapshot, last: Snapshot) -> List[str]:
    """Request conservation at the end of the run (``last``); on a memo-hit
    workload, no engine pass between ``first`` and ``last``."""
    violations = []
    replica, front = last
    r = replica["requests"]
    if r["received"] != r["admitted"] + r["rejected"]:
        violations.append(f"replica received != admitted + rejected: {r}")
    if r["admitted"] != r["completed"] + r["failed"] + r["in_flight"]:
        violations.append(f"replica admitted != completed + failed + in_flight: {r}")
    outermost = r["received"]
    if front is not None:
        f = front["front"]
        if f["received"] != f["routed"] + f["shed"] + f["unavailable"]:
            violations.append(f"front received != routed + shed + unavailable: {f}")
        outermost = f["received"]
    if tier.sent != outermost:
        violations.append(f"sent {tier.sent} requests, the outermost server received {outermost}")
    if tier.load.warm_set:
        passes = [snapshot[0]["sessions"]["engine_passes"] for snapshot in (first, last)]
        if passes[0] != passes[1]:
            violations.append(f"engine passes moved during the windows: {passes}")
    return violations


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _quantile(values: List[float], fraction: float) -> float:
    """Linearly interpolated quantile."""
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _delta(before: Dict, after: Dict, *path: str) -> float:
    for key in path:
        before, after = before[key], after[key]
    return float(after) - float(before)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_kb(window: Window) -> float:
    sizes = list(window.response_bytes.values())
    return statistics.median(sizes) / 1024.0 if sizes else 0.0


def memo_hit_share(before: Dict, after: Dict) -> float:
    hits = _delta(before, after, "memo", "hits")
    return _ratio(hits, hits + _delta(before, after, "memo", "misses"))


def latency(window: Window) -> Dict[str, Dict[str, object]]:
    values = [seconds * 1e3 for seconds in window.latencies.values()]
    if not values:
        raise RunError(f"no request completed: {sorted(set(window.errors.values()))[:3]}")
    p90 = _quantile(values, 0.9)
    return {
        "latency_p50_ms": {"value": _quantile(values, 0.5), "samples": len(values)},
        "latency_p90_ms": {
            "value": p90,
            "samples": len(values),
            "beyond_p90": sum(value > p90 for value in values),
        },
    }


def end_to_end(window: Window, setups: List[float], tier: ServeTier, rss_mb: float) -> Dict:
    return {
        **latency(window),
        "throughput_rps": {
            "value": _ratio(window.in_time, window.last_in_time - window.started),
            "samples": window.in_time,
        },
        "success_rate": {
            "value": _ratio(window.completed, window.attempted),
            "samples": window.attempted,
        },
        "setup_s": {"value": statistics.median(setups), "samples": len(setups)},
        "server_rss_mb": {"value": rss_mb, "samples": len(tier.procs)},
    }


def per_layer(
    untraced: Window, traced: Window, spans: List, before: Snapshot, after: Snapshot
) -> Dict:
    """The per-layer metrics of the traced window (``before``/``after`` are
    the ``/metrics`` snapshots around it)."""
    from spans import layer_metrics

    latencies = {str(index): seconds for index, seconds in traced.latencies.items()}
    layers = {
        name: {"value": value, "samples": samples}
        for name, (value, samples) in layer_metrics(spans, latencies).items()
    }
    (replica0, front0), (replica1, front1) = before, after
    completed = int(_delta(replica0, replica1, "requests", "completed"))
    counted = {
        "session.engine_passes_per_request": _ratio(
            _delta(replica0, replica1, "sessions", "engine_passes"), completed
        ),
        "memo.hit_ratio": memo_hit_share(replica0, replica1),
        "admission.rejected": _delta(replica0, replica1, "requests", "rejected"),
        "front.shed": _delta(front0, front1, "front", "shed") if front0 else 0.0,
        "front.failovers": _delta(front0, front1, "front", "failovers") if front0 else 0.0,
    }
    for name, value in counted.items():
        layers[name] = {"value": value, "samples": completed}
    layers["wire.response_kb"] = {"value": _median_kb(traced), "samples": traced.completed}
    p50 = [latency(w)["latency_p50_ms"]["value"] for w in (untraced, traced)]
    overhead = p50[1] - p50[0]
    layers["trace.overhead_ms"] = {"value": overhead, "samples": traced.completed}
    return layers


def properties(window: Window, before: Snapshot, after: Snapshot) -> Dict[str, object]:
    """What the workload was, as the servers and the wire saw it."""
    per_kind: Dict[str, int] = {}
    for kind in window.kinds.values():
        per_kind[kind] = per_kind.get(kind, 0) + 1
    return {
        "memo_hit_share": memo_hit_share(before[0], after[0]),
        "wire.response_kb": _median_kb(window),
        "requests_per_kind": per_kind,
    }


def environment(tier: ServeTier) -> Dict[str, object]:
    import numpy as np
    from repro.serve.client import ServeClient

    fleet = None
    if tier.load.front:
        view = ServeClient(port=tier.port).fleet()
        fleet = {"ring": view.get("ring"), "assignments": view.get("assignments")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fleet": fleet,
    }


# ----------------------------------------------------------------------
def run(load: Workload, seconds: float, trace: bool) -> Tuple[Dict, Dict]:
    """One run: returns the per-run record and the result line."""
    from repro.serve.codec import decode_request, to_eval_request

    WORK.mkdir(parents=True, exist_ok=True)
    registry = reference_registry(load.testbench)
    labels = {}
    for index in range(-4, 4):
        request = load.request(index)
        dataset = to_eval_request(decode_request(request), registry).evaluation_dataset()
        labels[kind_of(request)] = dataset.labels
    scratch = WORK / f"run-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    try:
        return _run(load, seconds, trace, registry, labels, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(load: Workload, seconds: float, trace: bool, registry, labels, scratch: Path):
    tier: Optional[ServeTier] = None
    setups: List[float] = []
    windows: List[Window] = []
    recorder = None
    try:
        for _ in range(1 if trace else SETUPS):
            if tier is not None:
                tier.stop()
            tier = ServeTier(load, scratch, traced=trace)
            setups.append(tier.start())
        driver = Driver(tier, labels, keep=load.gate_indices())
        driver.warm_up()
        snapshots = [tier.metrics()]
        for traced in (False, True) if trace else (False,):
            if traced:
                from spans import CLIENT_HOOKS, Recorder

                recorder = Recorder().install(CLIENT_HOOKS)
            windows.append(driver.window(seconds / (1 + trace), recorder))
            snapshots.append(tier.metrics())
        rss_mb = tier.peak_rss_mb()
        record: Dict[str, object] = {"environment": environment(tier)}
        conservation = conservation_gate(tier, snapshots[0], snapshots[-1])
    finally:
        if tier is not None:
            tier.stop()
    # The servers are gone: the gate's in-process evaluation has the machine.
    correctness = correctness_gate(load, windows[0], registry)
    if trace:
        spans, missing = tier.spans()
        metrics = per_layer(windows[0], windows[1], spans + recorder.spans, *snapshots[1:])
        units = metric_units("per_layer")
        record["missing_hooks"] = missing + recorder.missing
        record["untraced_latency"] = latency(windows[0])
    else:
        metrics = end_to_end(windows[0], setups, tier, rss_mb)
        units = metric_units("end_to_end")
        record["setups_s"] = setups
    metrics = {name: dict(metrics[name], unit=unit) for name, unit in units.items()}
    violations = conservation + correctness["violations"]
    attempted = sum(window.attempted for window in windows)
    failed_requests = sum(len(window.errors) for window in windows)
    failed = failed_requests + len(violations)
    record.update(
        workload=load.name,
        seed=load.seed,
        trace=int(trace),
        seconds=seconds,
        metrics=metrics,
        properties=properties(windows[-1], snapshots[-2], snapshots[-1]),
        error_rate=_ratio(failed, attempted),
        errors=sorted({e for window in windows for e in window.errors.values()})[:5],
        gates={"correctness": correctness, "conservation": conservation},
    )
    result = {
        "correct": not violations and failed_requests == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }
    return record, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serve" / "__main__.py").is_file():
        print(f"perfbench: no serve tier under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        record, result = run(workload(args.workload, args.seed), args.seconds, bool(args.trace))
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
