"""Front-tier router: consistent routing, failover, fleet admission.

The front tier's promises, each pinned here:

* responses through the router are **bit-identical** to a direct
  ``Session.evaluate`` (the router adds routing, never arithmetic) —
  including through a mid-burst replica kill, which must be absorbed by
  deterministic failover with zero client-visible 5xx;
* a saturated fleet is shed at the front (429 + ``Retry-After``) computed
  from polled drain snapshots, **before any backend socket is picked** —
  asserted by the replicas' own ``received`` counters staying flat;
* ``/metrics`` aggregates the fleet: conservation counters summed (the
  invariants hold fleet-wide), p95 merged from the union of per-replica
  latency windows;
* validation failures (400) are answered at the front without burning a
  backend connection, while replica answers (404s, 429s) pass through
  with their typed payloads intact;
* the front forwards bodies unparsed: a replica's answer reaches the
  client byte for byte, and a replica answering 500 spills to the next
  replica in preference order like a 429 does.
"""

from __future__ import annotations

import http.client
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from repro.api import EvalRequest, Session
from repro.serve import (
    EvalServer,
    ModelRegistry,
    RequestRejectedError,
    ServeClient,
    ServeConfig,
    ServeError,
    ServiceOverloadedError,
)
from repro.serve.front import FrontConfig, FrontServer, model_fingerprint
from repro.serve.ring import ReplicaRing


@pytest.fixture(scope="module")
def registry(tiny_context) -> ModelRegistry:
    return ModelRegistry.from_context(tiny_context, methods=("tea",))


@pytest.fixture(scope="module")
def fleet(registry):
    """Two live replicas behind one front router."""
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=2, queue_depth=16)
        ).start()
        for _ in range(2)
    ]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{replica.port}" for replica in replicas),
        poll_interval=0.1,
        request_timeout=120.0,
    )
    front = FrontServer(config).start()
    try:
        yield front, replicas
    finally:
        front.close()
        for replica in replicas:
            replica.close()


@pytest.fixture(scope="module")
def client(fleet) -> ServeClient:
    front, _ = fleet
    return ServeClient(port=front.port, timeout=120.0)


def _direct(registry, **kwargs) -> EvalRequest:
    kwargs.setdefault("dataset", registry.dataset("test"))
    return EvalRequest(model=registry.model("tea"), **kwargs)


def _replica_received(replicas):
    return [
        ServeClient(port=replica.port, timeout=30.0).metrics()["requests"][
            "received"
        ]
        for replica in replicas
    ]


def _post(port, body: bytes):
    """POST raw bytes to ``/v1/evaluate``; ``(status, body bytes)``."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120.0)
    try:
        connection.request(
            "POST",
            "/v1/evaluate",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class BrokenReplica:
    """A replica that is alive (``/healthz`` 200) but answers every
    evaluation with the same 500 ``internal-error`` body.

    ``models`` is the ``/v1/models`` payload it advertises (404 when
    ``None``), which sets the routing key the front derives for a model.
    """

    def __init__(self):
        self.posts = 0
        self.models = None
        # Compact separators: a front that parsed and re-dumped the answer
        # would change these bytes.
        self.body = json.dumps(
            {"error": {"type": "internal-error", "message": "BrokenProcessPool"}},
            separators=(",", ":"),
        ).encode("utf-8")
        stub = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, format, *args):
                pass

            def _answer(self, status, body):
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self):
                if self.path == "/healthz":
                    self._answer(200, b'{"status": "ok"}')
                elif self.path == "/v1/models" and stub.models is not None:
                    self._answer(200, json.dumps(stub.models).encode("utf-8"))
                else:
                    self._answer(404, b"{}")

            def do_POST(self):
                self.rfile.read(int(self.headers["Content-Length"]))
                stub.posts += 1
                self._answer(500, stub.body)

        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.port = self.httpd.server_address[1]
        self.spec = f"127.0.0.1:{self.port}"
        threading.Thread(target=self.httpd.serve_forever, daemon=True).start()

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


def _ranked_first(spec, other):
    """A ``/v1/models`` payload whose ``tea`` fingerprint the ring ranks on
    ``spec`` ahead of ``other``.  The front routes a model by the first
    fingerprint advertised in replica order, so a replica listed first that
    advertises this payload is the model's home."""
    for salt in range(64):
        entry = {"name": "tea", "salt": salt}
        key = model_fingerprint(entry)
        if ReplicaRing((spec, other)).preference(key)[0] == spec:
            return {"models": [entry], "datasets": [], "backends": []}
    raise AssertionError("no salt ranked the replica first")


def assert_fleet_invariants(fleet_requests):
    assert (
        fleet_requests["received"]
        == fleet_requests["admitted"] + fleet_requests["rejected"]
    )
    assert fleet_requests["admitted"] == (
        fleet_requests["completed"]
        + fleet_requests["failed"]
        + fleet_requests["in_flight"]
    )


# ----------------------------------------------------------------------
# routing correctness
# ----------------------------------------------------------------------
def test_routed_result_bit_identical_to_direct_session(registry, client):
    served = client.evaluate(
        model="tea", copy_levels=[1, 2], spf_levels=[1, 2], repeats=2, seed=0
    )
    direct = Session().evaluate(
        _direct(registry, copy_levels=(1, 2), spf_levels=(1, 2), repeats=2, seed=0)
    )
    assert served.backend == direct.backend
    assert np.array_equal(served.scores, direct.scores)
    assert np.array_equal(served.accuracy, direct.accuracy)
    assert np.array_equal(served.labels, direct.labels)


def test_routed_chip_result_bit_identical_including_counters(registry, client):
    served = client.evaluate(
        model="tea",
        copy_levels=[1, 2],
        spf_levels=[2],
        seed=0,
        collect_spike_counters=True,
        max_samples=16,
    )
    direct = Session().evaluate(
        _direct(
            registry,
            copy_levels=(1, 2),
            spf_levels=(2,),
            seed=0,
            collect_spike_counters=True,
            max_samples=16,
        )
    )
    assert served.backend == "chip"
    assert np.array_equal(served.class_counts(), direct.class_counts())
    assert np.array_equal(served.spike_counters, direct.spike_counters)


def test_front_body_is_the_replica_body_byte_for_byte(fleet, client):
    """The front forwards the replica's answer unparsed: the same seeded
    request answers the same bytes through the front as from its home."""
    front, replicas = fleet
    body = json.dumps(
        {"model": "tea", "copy_levels": [1, 2], "spf_levels": [1, 2], "seed": 17}
    ).encode("utf-8")
    home = client.fleet()["assignments"]["tea"]
    home_port = int(home.rsplit(":", 1)[1])
    status, through_front = _post(front.port, body)
    assert status == 200
    direct_status, direct = _post(home_port, body)
    assert direct_status == 200
    assert through_front == direct
    assert json.loads(through_front)["result"]["scores"]["dtype"] == "float64"


def test_same_model_requests_stick_to_one_replica(fleet, client):
    """Consistent routing is the journal-affinity mechanism: one model's
    traffic lands on one home replica, so that replica's journal holds the
    model's whole history."""
    front, _ = fleet
    before = {
        entry["name"]: entry["proxied"]
        for entry in client.fleet()["replicas"]
    }
    for seed in (201, 202):
        client.evaluate(model="tea", copy_levels=[1], spf_levels=[1], seed=seed)
    after = {
        entry["name"]: entry["proxied"]
        for entry in client.fleet()["replicas"]
    }
    grew = [name for name in after if after[name] > before[name]]
    assert len(grew) == 1
    assert grew[0] == client.fleet()["assignments"]["tea"]


# ----------------------------------------------------------------------
# introspection
# ----------------------------------------------------------------------
def test_healthz_counts_replicas(client):
    health = client.health()
    assert health["status"] == "ok"
    assert health["replicas"] == 2
    assert health["healthy"] == 2


def test_models_is_the_fleet_union(client):
    listing = client.models()
    assert "tea" in [entry["name"] for entry in listing["models"]]
    assert "test" in [entry["name"] for entry in listing["datasets"]]


def test_fleet_endpoint_reports_ring_and_assignments(fleet, client):
    front, replicas = fleet
    view = client.fleet()
    expected = {f"127.0.0.1:{replica.port}" for replica in replicas}
    assert set(view["ring"]) == expected
    assert {entry["name"] for entry in view["replicas"]} == expected
    assert all(entry["healthy"] for entry in view["replicas"])
    # The hosted model is fingerprinted and assigned to a ring member.
    assert "tea" in view["model_fingerprints"]
    assert view["assignments"]["tea"] in expected


def test_metrics_aggregates_fleet_counters_and_latency(fleet, client):
    front, replicas = fleet
    client.evaluate(model="tea", copy_levels=[1], spf_levels=[1], seed=301)
    metrics = client.metrics()
    fleet_block = metrics["fleet"]
    assert fleet_block["replicas"] == 2
    assert fleet_block["healthy"] == 2
    assert_fleet_invariants(fleet_block["requests"])
    # The summed counters equal the sum of what each replica reports.
    assert fleet_block["requests"]["received"] == sum(
        _replica_received(replicas)
    )
    # The merged percentile comes from the union of replica windows.
    p50, p95 = (
        fleet_block["latency_p50_seconds"],
        fleet_block["latency_p95_seconds"],
    )
    assert p50 is not None and p95 is not None and p50 <= p95
    merged = sorted(
        sample
        for replica in replicas
        for sample in replica.service.admission.latencies.samples()
    )
    assert p95 in merged
    # Front-side counters conserve too: received == routed + shed + unavailable.
    front_block = metrics["front"]
    assert front_block["received"] == (
        front_block["routed"] + front_block["shed"] + front_block["unavailable"]
    )
    assert front_block["routed"] >= 1
    # Per-replica controller state is exposed per replica, not merged.
    assert set(metrics["controllers"]) == {
        f"127.0.0.1:{replica.port}" for replica in replicas
    }
    assert "POST /v1/evaluate 200" in metrics["http"]


# ----------------------------------------------------------------------
# typed errors at the front
# ----------------------------------------------------------------------
def test_validation_400_is_answered_without_touching_a_backend(fleet, client):
    front, replicas = fleet
    before = _replica_received(replicas)
    with pytest.raises(RequestRejectedError) as excinfo:
        client.evaluate_payload({"model": "tea", "copy_level": [1]})
    assert excinfo.value.status == 400
    assert _replica_received(replicas) == before


def test_unknown_model_404_passes_through_from_the_replica(client):
    with pytest.raises(RequestRejectedError) as excinfo:
        client.evaluate(model="nope")
    assert excinfo.value.status == 404
    assert excinfo.value.error_type == "unknown-model"


def test_unknown_route_is_a_404(client):
    with pytest.raises(ServeError) as excinfo:
        client._call("GET", "/v2/evaluate")
    assert excinfo.value.status == 404


# ----------------------------------------------------------------------
# failure paths (dedicated fleets: these kill and saturate replicas)
# ----------------------------------------------------------------------
def test_replica_kill_mid_burst_is_absorbed_by_failover(registry):
    """Kill the model's home replica mid-burst: every request must still
    succeed (zero client-visible 5xx) and stay bit-identical, the dead
    replica must be ejected, and a restarted replica must rejoin."""
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=2, queue_depth=16)
        ).start()
        for _ in range(2)
    ]
    ports = [replica.port for replica in replicas]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{port}" for port in ports),
        poll_interval=0.1,
        request_timeout=120.0,
    )
    front = FrontServer(config).start()
    client = ServeClient(port=front.port, timeout=120.0)
    session = Session()
    try:
        served = {}
        for seed in range(3):
            served[seed] = client.evaluate(
                model="tea", copy_levels=[1], spf_levels=[1, 2], seed=seed
            )
        primary = client.fleet()["assignments"]["tea"]
        victim_index = ports.index(int(primary.rsplit(":", 1)[1]))
        replicas[victim_index].close()

        # The burst continues right through the kill: the first request to
        # hit the dead socket fails over within the same call.
        for seed in range(3, 6):
            served[seed] = client.evaluate(
                model="tea", copy_levels=[1], spf_levels=[1, 2], seed=seed
            )
        for seed, result in served.items():
            direct = session.evaluate(
                _direct(registry, copy_levels=(1,), spf_levels=(1, 2), seed=seed)
            )
            assert np.array_equal(result.scores, direct.scores)
            assert np.array_equal(result.accuracy, direct.accuracy)

        view = client.fleet()
        dead = {entry["name"]: entry for entry in view["replicas"]}[primary]
        assert not dead["healthy"]
        assert dead["ejections"] >= 1
        assert view["assignments"]["tea"] != primary
        assert client.health()["healthy"] == 1

        # Restart the victim on its old port: the poller must rejoin it
        # and rendezvous hashing must restore the original assignment.
        replicas[victim_index] = EvalServer(
            registry,
            ServeConfig(port=ports[victim_index], workers=2, queue_depth=16),
        ).start()
        rejoined = threading.Event()
        for _ in range(100):
            if client.health()["healthy"] == 2:
                break
            rejoined.wait(0.1)
        assert client.health()["healthy"] == 2
        assert client.fleet()["assignments"]["tea"] == primary
        result = client.evaluate(
            model="tea", copy_levels=[1], spf_levels=[1, 2], seed=0
        )
        assert np.array_equal(result.scores, served[0].scores)
    finally:
        front.close()
        for replica in replicas:
            replica.close()


def test_fleet_saturation_sheds_429_before_any_backend_socket(registry):
    """Both replicas full (workers=0 freezes the pools): the front answers
    429 from its polled drain state, and the replicas' own ``received``
    counters prove no backend connection was made for the shed request."""
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=0, queue_depth=1)
        ).start()
        for _ in range(2)
    ]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{replica.port}" for replica in replicas),
        poll_interval=0.1,
        request_timeout=60.0,
    )
    front = FrontServer(config).start()
    client = ServeClient(port=front.port, timeout=60.0)
    hung = []
    try:
        # Fill each replica's bounded queue directly (not via the front,
        # so the front's own counters stay clean for the assertion).
        def fire(port, seed):
            try:
                ServeClient(port=port, timeout=60.0).evaluate(
                    model="tea", seed=seed
                )
            except ServeError:
                pass

        for index, replica in enumerate(replicas):
            thread = threading.Thread(target=fire, args=(replica.port, index))
            thread.start()
            hung.append(thread)
        settled = threading.Event()
        for _ in range(200):
            depths = [
                ServeClient(port=replica.port, timeout=30.0).metrics()[
                    "requests"
                ]["queue_depth"]
                for replica in replicas
            ]
            if depths == [1, 1]:
                break
            settled.wait(0.05)
        assert depths == [1, 1]

        front.service.refresh()  # pick up the saturated drain snapshots
        before = _replica_received(replicas)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            client.evaluate(model="tea", seed=99)
        assert 1.0 <= excinfo.value.retry_after <= 60.0
        # The shed request never reached a backend: replica counters flat.
        assert _replica_received(replicas) == before
        front_block = client.metrics()["front"]
        assert front_block["shed"] >= 1
    finally:
        front.close()
        for replica in replicas:
            replica.close()
        for thread in hung:
            thread.join(timeout=30)
    assert all(not thread.is_alive() for thread in hung)


def test_per_replica_429_spills_to_the_next_preference(registry):
    """One replica saturated, the other idle: the front must spill the
    request to the next replica in preference order instead of bouncing
    the client — the fleet has capacity, so the client gets a 200."""
    # Primary discovery first: build the fleet, find tea's home, then
    # saturate only that home.
    replicas = [
        EvalServer(
            registry, ServeConfig(port=0, workers=0, queue_depth=1)
        ).start()
        for _ in range(2)
    ]
    ports = [replica.port for replica in replicas]
    config = FrontConfig(
        port=0,
        replicas=tuple(f"127.0.0.1:{port}" for port in ports),
        poll_interval=0.1,
        request_timeout=120.0,
    )
    front = FrontServer(config).start()
    client = ServeClient(port=front.port, timeout=120.0)
    hung = []
    try:
        primary = client.fleet()["assignments"]["tea"]
        primary_index = ports.index(int(primary.rsplit(":", 1)[1]))
        spare_index = 1 - primary_index
        # Restart the spare with workers so it can actually serve.
        replicas[spare_index].close()
        replicas[spare_index] = EvalServer(
            registry,
            ServeConfig(port=ports[spare_index], workers=2, queue_depth=16),
        ).start()
        ready = threading.Event()
        for _ in range(100):
            if client.health()["healthy"] == 2:
                break
            ready.wait(0.1)
        assert client.health()["healthy"] == 2

        def fire():
            try:
                ServeClient(port=ports[primary_index], timeout=60.0).evaluate(
                    model="tea", seed=0
                )
            except ServeError:
                pass

        thread = threading.Thread(target=fire)
        thread.start()
        hung.append(thread)
        settled = threading.Event()
        for _ in range(200):
            depth = ServeClient(
                port=ports[primary_index], timeout=30.0
            ).metrics()["requests"]["queue_depth"]
            if depth == 1:
                break
            settled.wait(0.05)
        assert depth == 1

        result = client.evaluate(
            model="tea", copy_levels=[1], spf_levels=[1], seed=77
        )
        assert result.seed == 77  # served by the spare, not bounced
        spare_received = _replica_received([replicas[spare_index]])[0]
        assert spare_received >= 1
    finally:
        front.close()
        for replica in replicas:
            replica.close()
        for thread in hung:
            thread.join(timeout=30)


def test_replica_500_spills_to_the_next_preference(registry):
    """A replica that is up but answers 500 (a broken worker pool) must not
    reach the client while the next replica in preference order can serve:
    the front spills, counts a failover, and leaves ejection to /healthz."""
    healthy = EvalServer(
        registry, ServeConfig(port=0, workers=2, queue_depth=16)
    ).start()
    healthy_spec = f"127.0.0.1:{healthy.port}"
    stub = BrokenReplica()
    stub.models = _ranked_first(stub.spec, healthy_spec)
    config = FrontConfig(
        port=0,
        replicas=(stub.spec, healthy_spec),
        poll_interval=0.1,
        request_timeout=120.0,
    )
    front = FrontServer(config).start()
    client = ServeClient(port=front.port, timeout=120.0)
    try:
        assert client.fleet()["assignments"]["tea"] == stub.spec
        served = client.evaluate(
            model="tea", copy_levels=[1], spf_levels=[1], seed=5
        )
        direct = Session().evaluate(
            _direct(registry, copy_levels=(1,), spf_levels=(1,), seed=5)
        )
        assert np.array_equal(served.scores, direct.scores)
        assert stub.posts == 1
        front_block = client.metrics()["front"]
        assert front_block["failovers"] == 1
        assert front_block["routed"] == 1
        view = {entry["name"]: entry for entry in client.fleet()["replicas"]}
        assert view[stub.spec]["healthy"]
        assert view[stub.spec]["ejections"] == 0
    finally:
        front.close()
        stub.close()
        healthy.close()


def test_every_replica_500_passes_the_last_500_through():
    """With no replica able to serve, the last 500 reaches the client as
    the bytes that replica sent."""
    first = BrokenReplica()
    second = BrokenReplica()
    second.body = second.body.replace(b"Pool", b"Pool (second)")
    config = FrontConfig(
        port=0,
        replicas=(first.spec, second.spec),
        poll_interval=0.1,
        request_timeout=60.0,
    )
    front = FrontServer(config).start()
    try:
        order = front.service.ring.preference("tea")
        last = {first.spec: first, second.spec: second}[order[-1]]
        status, body = _post(front.port, b'{"model": "tea"}')
        assert status == 500
        assert body == last.body
        assert first.posts == second.posts == 1
        front_block = ServeClient(port=front.port, timeout=30.0).metrics()["front"]
        assert front_block["failovers"] == 1
        assert front_block["received"] == front_block["routed"] == 1
        with pytest.raises(ServeError) as excinfo:
            ServeClient(port=front.port, timeout=30.0).evaluate(model="tea")
        assert excinfo.value.status == 500
        assert excinfo.value.error_type == "internal-error"
    finally:
        front.close()
        first.close()
        second.close()
