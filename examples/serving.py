#!/usr/bin/env python
"""Serving: evaluate trained models over HTTP through ``repro.serve``.

The serve-style workload end to end, in one process:

1. train the Tea and probability-biased models on test bench 1 and host
   them in a :class:`repro.serve.ModelRegistry`,
2. boot the :class:`repro.serve.EvalServer` on an ephemeral port — an
   admission-controlled bounded queue in front of a worker pool whose
   batched ``Session.submit``/``flush`` drains coalesce same-fingerprint
   requests onto shared engine passes,
3. score both models over HTTP with :class:`repro.serve.ServeClient`
   (responses are bit-identical to a direct ``Session.evaluate``),
4. read ``/metrics`` (queue counters, latency percentiles, result-store
   hits) and demonstrate the explicit 429 + ``Retry-After`` overload
   path with a polite retry loop.

Run with:  python examples/serving.py

For a long-running server use the console entry point instead::

    repro-serve --port 8000 --methods tea,biased
    curl -s localhost:8000/v1/models | python -m json.tool
"""

from __future__ import annotations

import json
import time

from repro.experiments.runner import ExperimentContext
from repro.serve import (
    EvalServer,
    ModelRegistry,
    ServeClient,
    ServeConfig,
    ServiceOverloadedError,
)


def evaluate_with_retry(client: ServeClient, attempts: int = 5, **request):
    """Client-side half of admission control: honor Retry-After and retry."""
    for _ in range(attempts):
        try:
            return client.evaluate(**request)
        except ServiceOverloadedError as error:
            print(f"   429: backing off {error.retry_after:.0f}s as instructed")
            time.sleep(min(error.retry_after, 2.0))
    raise SystemExit("service stayed overloaded; giving up")


def main() -> None:
    print("== Training the hosted models (test bench 1) ==")
    context = ExperimentContext(
        train_size=1200,
        test_size=300,
        epochs=12,
        eval_samples=200,
        repeats=2,
        seed=0,
    )
    registry = ModelRegistry.from_context(context, methods=("tea", "biased"))

    config = ServeConfig(port=0, workers=2, queue_depth=32, batch_max=8)
    with EvalServer(registry, config) as server:
        client = ServeClient(port=server.port)
        print(f"\n== Serving on {server.url} ==")
        print("hosted:", json.dumps(client.models()["models"], indent=2))

        print("\n== POST /v1/evaluate: Tea vs biased at low duplication ==")
        for model in ("tea", "biased"):
            result = evaluate_with_retry(
                client,
                model=model,
                copy_levels=[1, 2, 4],
                spf_levels=[1, 2],
                repeats=2,
                seed=0,
            )
            print(
                f"{model:>6}: accuracy(1 copy, 1 spf) = "
                f"{result.accuracy_at(1, 1):.4f}, "
                f"accuracy(4 copies, 2 spf) = {result.accuracy_at(4, 2):.4f} "
                f"[served by the {result.backend!r} backend]"
            )

        print("\n== Same request again: served from the shared result store ==")
        start = time.perf_counter()
        evaluate_with_retry(
            client,
            model="tea",
            copy_levels=[1, 2, 4],
            spf_levels=[1, 2],
            repeats=2,
            seed=0,
        )
        print(f"   answered in {time.perf_counter() - start:.3f}s")

        print("\n== GET /metrics ==")
        metrics = client.metrics()
        print(json.dumps({k: metrics[k] for k in ("requests", "memo")}, indent=2))


if __name__ == "__main__":
    main()
