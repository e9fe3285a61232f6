"""The three closed-loop workloads and the checks on their answers.

Every caller of the service (the experiment drivers, ``ServeClient.evaluate``)
waits for an answer before it sends the next request, so load is a closed
loop of two client threads (two cores).  Each request's seed and grid come
from the benchmark's ``--seed``; the servers see only the wire requests.

Why each workload exists:

* ``vector-fresh`` -- the replica directly, test bench 1, vectorized
  copies [1,2,4,8,16] x spf [1,2,4] x repeats 2 over the 300-sample ``test``
  set, a new seed every request.  The vectorized engine (deploy, stochastic
  encoding, GEMMs) and the result codec split the time about evenly; no memo
  or score-cache hit is possible, and the front is bypassed.
* ``cycle-fresh`` -- the replica directly, test bench 5 (two layers, 25
  cores per copy), the first 64 test samples, a new seed every request.
  Three of every four requests are chip copies [1,2,4] x spf [1,2,4,8] x
  repeats 2; the fourth is a board pass with link_delay 1, copies [1,2,4] x
  spf [1,2,4] x repeats 1.  The cycle-accurate engines do most of the work:
  per-spf re-deploy, re-encode and re-program, the tick loop and multi-layer
  routing.  The sample cap keeps a 20 s run at 100 or more requests, so
  that ten or more lie beyond its p90: at 300 samples a chip request takes
  about a second.
* ``repeat-front`` -- the front router over one replica, test bench 1: ten
  deterministic requests (two seeds x vectorized copies [1,2,4,8,16],
  [1,4,16], [16] x spf [1,2,4] x repeats 2, and chip copies [1,2,4,8], [8]
  x spf [1,2,4,8] x repeats 2), cycled.  Set-up serves each once, widest grid
  first, so every timed request is a memo hit sliced from the wider entry:
  the engine does no pass, and the codec, HTTP, admission hand-off and front
  proxy make up the whole latency.

Only one replica sits behind the front: the rendezvous ring hashes
``host:port`` names and the ports are ephemeral, so with two replicas the
model would land on a different replica from run to run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

Payload = Dict[str, object]

VECTOR_GRID = {"copy_levels": [1, 2, 4, 8, 16], "spf_levels": [1, 2, 4], "repeats": 2}
CHIP_GRID = {"copy_levels": [1, 2, 4], "spf_levels": [1, 2, 4, 8], "repeats": 2}
BOARD_GRID = {"copy_levels": [1, 2, 4], "spf_levels": [1, 2, 4], "repeats": 1}
REPEAT_CHIP_SPF = [1, 2, 4, 8]
#: test samples of a cycle-fresh request (see the module docstring).
CYCLE_SAMPLES = 64


def payload(
    backend: str,
    seed: int,
    grid: Dict[str, object],
    max_samples: Optional[int] = None,
    link_delay: Optional[int] = None,
) -> Payload:
    """One wire request for the hosted ``tea`` model on the ``test`` set."""
    return {
        "model": "tea",
        "dataset": "test",
        "backend": backend,
        "seed": seed,
        "max_samples": max_samples,
        "link_delay": link_delay,
        **grid,
    }


@dataclass(frozen=True)
class Workload:
    """A request stream for one ``--seed``.

    ``request(i)`` is the i-th request of the timed window, ``warmup`` what
    one client sends before it (lazy set-up: backend construction, first
    BLAS calls), ``warm_set`` what set-up serves through the servers.
    """

    name: str
    testbench: int
    front: bool
    seed: int

    @property
    def base(self) -> int:
        return random.Random(f"{self.name}/{self.seed}").randrange(1, 2**30)

    def request(self, index: int) -> Payload:
        seed = self.base + index
        if self.name == "vector-fresh":
            return payload("vectorized", seed, VECTOR_GRID)
        if self.name == "cycle-fresh":
            if index % 4 == 3:
                return payload(
                    "board", seed, BOARD_GRID, max_samples=CYCLE_SAMPLES, link_delay=1
                )
            return payload("chip", seed, CHIP_GRID, max_samples=CYCLE_SAMPLES)
        return self.repeat_set()[index % 10]

    def repeat_set(self) -> List[Payload]:
        """The ten repeat-front requests, each key's widest grid first."""
        requests = []
        for seed in (self.base, self.base + 1):
            for copies in ([1, 2, 4, 8, 16], [1, 4, 16], [16]):
                requests.append(
                    payload("vectorized", seed, dict(VECTOR_GRID, copy_levels=copies))
                )
            for copies in ([1, 2, 4, 8], [8]):
                grid = {"copy_levels": copies, "spf_levels": REPEAT_CHIP_SPF, "repeats": 2}
                requests.append(payload("chip", seed, grid))
        return requests

    @property
    def warm_set(self) -> List[Payload]:
        return self.repeat_set() if self.name == "repeat-front" else []

    @property
    def warmup(self) -> List[Payload]:
        if self.name == "repeat-front":
            return []
        # One request of every kind, on seeds the timed window never uses.
        return [self.request(-4), self.request(-1)]

    def gate_indices(self) -> List[int]:
        """The fixed sample the correctness gate re-evaluates in-process:
        the first two timed requests of each kind (all ten on repeat-front)."""
        chosen: Dict[str, List[int]] = {}
        for index in range(10):
            kind = kind_of(self.request(index))
            if self.name == "repeat-front" or len(chosen.get(kind, [])) < 2:
                chosen.setdefault(kind, []).append(index)
        return sorted(i for indices in chosen.values() for i in indices)


#: name -> (test bench, behind the front); BENCHMARK.json says why, in short.
WORKLOADS: Dict[str, Tuple[int, bool]] = {
    "vector-fresh": (1, False),
    "cycle-fresh": (5, False),
    "repeat-front": (1, True),
}


def workload(name: str, seed: int) -> Workload:
    testbench, front = WORKLOADS[name]
    return Workload(name, testbench, front, seed)


def kind_of(request: Payload) -> str:
    return str(request["backend"])


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
def answer_problems(request: Payload, result, labels: np.ndarray) -> List[str]:
    """What is wrong with an answer on its face (checked for every answer)."""
    problems = []
    expected = {
        "backend": request["backend"],
        "seed": request["seed"],
        "repeats": request["repeats"],
        "copy_levels": tuple(request["copy_levels"]),
        "spf_levels": tuple(request["spf_levels"]),
    }
    for field, value in expected.items():
        got = getattr(result, field)
        if (tuple(got) if isinstance(value, tuple) else got) != value:
            problems.append(f"{field} is {got!r}, expected {value!r}")
    shape = (
        expected["repeats"],
        len(expected["copy_levels"]),
        len(expected["spf_levels"]),
        len(labels),
    )
    if tuple(result.scores.shape[:4]) != shape:
        problems.append(f"scores shape {result.scores.shape}, expected {shape} + classes")
    if not np.array_equal(result.labels, labels):
        problems.append("labels differ from the dataset's")
    return problems


def mismatches(served, reference) -> List[str]:
    """Fields where a served answer differs from the reference (atol=0)."""
    differ = [
        field
        for field in ("scores", "accuracy", "labels")
        if not np.array_equal(getattr(served, field), getattr(reference, field))
    ]
    if not np.array_equal(served.class_counts(), reference.class_counts()):
        differ.append("class_counts")
    return differ
