"""Property tests for the serve wire codec.

The protocol promise is *losslessness*: any :class:`EvalRequest` the
protocol allows survives ``encode → json.dumps → json.loads → decode``
with every field intact (models and datasets round-trip by registry name),
and any :class:`EvalResult` survives the same trip **bit-identically** in
its served dtypes (arrays travel as their little-endian bytes, so
``-0.0``, infinities and NaN payloads survive too).  Hypothesis drives the
field combinations, including multi-point (copies, spf) grids and the
chip-only capability flags.
"""

from __future__ import annotations

import base64
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import EvalRequest, EvalResult
from repro.serve.codec import (
    CodecError,
    UnknownDatasetError,
    UnknownModelError,
    decode_array,
    decode_request,
    decode_result,
    encode_array,
    encode_request,
    encode_result,
    error_payload,
    to_eval_request,
)


class FakeRegistry:
    """Name resolution without training anything: sentinel objects.

    ``EvalRequest`` never inspects the model/dataset objects at construction
    time, so identity round-tripping is exactly what the codec must provide.
    """

    def __init__(self):
        self.models = {"tea": object(), "biased": object()}
        self.datasets = {"test": object(), "test-full": object()}

    def model(self, name):
        try:
            return self.models[name]
        except KeyError:
            raise UnknownModelError(f"unknown model {name!r}") from None

    def dataset(self, name):
        try:
            return self.datasets[name]
        except KeyError:
            raise UnknownDatasetError(f"unknown dataset {name!r}") from None


REGISTRY = FakeRegistry()

levels = st.lists(
    st.integers(min_value=1, max_value=64), min_size=1, max_size=4, unique=True
)
request_fields = st.fixed_dictionaries(
    {
        "model": st.sampled_from(sorted(REGISTRY.models)),
        "dataset": st.sampled_from(sorted(REGISTRY.datasets)),
        "backend": st.sampled_from([None, "vectorized", "chip", "reference"]),
        "copy_levels": levels,
        "spf_levels": levels,
        "repeats": st.integers(min_value=1, max_value=8),
        "seed": st.one_of(st.none(), st.integers(min_value=0, max_value=2**31)),
        "max_samples": st.one_of(st.none(), st.integers(min_value=1, max_value=10**6)),
        "collect_spike_counters": st.booleans(),
        "router_delay": st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
        "stochastic_synapses": st.booleans(),
        "link_delay": st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    }
)


@settings(max_examples=200, deadline=None)
@given(fields=request_fields)
def test_request_roundtrip_is_lossless(fields):
    """EvalRequest -> wire JSON -> EvalRequest preserves every field."""
    request = EvalRequest(
        model=REGISTRY.model(fields["model"]),
        dataset=REGISTRY.dataset(fields["dataset"]),
        copy_levels=tuple(fields["copy_levels"]),
        spf_levels=tuple(fields["spf_levels"]),
        repeats=fields["repeats"],
        seed=fields["seed"],
        max_samples=fields["max_samples"],
        collect_spike_counters=fields["collect_spike_counters"],
        router_delay=fields["router_delay"],
        stochastic_synapses=fields["stochastic_synapses"],
        link_delay=fields["link_delay"],
    )
    payload = encode_request(
        request, fields["model"], fields["dataset"], backend=fields["backend"]
    )
    over_the_wire = json.loads(json.dumps(payload))
    wire = decode_request(over_the_wire)
    assert wire.backend == fields["backend"]
    decoded = to_eval_request(wire, REGISTRY)
    assert decoded == request
    assert decoded.model is request.model
    assert decoded.dataset is request.dataset


array_shapes = st.tuples(
    st.integers(1, 3),  # repeats
    st.integers(1, 3),  # copy levels
    st.integers(1, 3),  # spf levels
    st.integers(1, 5),  # batch
    st.integers(2, 4),  # classes
)


@settings(max_examples=100, deadline=None)
@given(
    shape=array_shapes,
    seed=st.integers(min_value=0, max_value=2**31),
    scale=st.sampled_from([1e-12, 1e-3, 1.0, 1e6, 1e15]),
    with_counters=st.booleans(),
)
def test_result_roundtrip_is_bit_identical(shape, seed, scale, with_counters):
    """EvalResult -> wire JSON -> EvalResult is exact to the last bit."""
    repeats, n_copies, n_spf, batch, classes = shape
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(shape) * scale
    accuracy = rng.random((repeats, n_copies, n_spf))
    spike_counters = (
        rng.integers(0, 50, size=(repeats, n_copies, 2, batch)).astype(np.int64)
        if with_counters
        else None
    )
    result = EvalResult(
        backend="vectorized",
        copy_levels=tuple(range(1, n_copies + 1)),
        spf_levels=tuple(range(1, n_spf + 1)),
        scores=scores,
        accuracy=accuracy,
        labels=rng.integers(0, classes, size=batch).astype(np.int64),
        class_neuron_counts=rng.integers(1, 9, size=classes).astype(np.float64),
        cores=(np.arange(n_copies, dtype=np.int64) + 1) * 4,
        seed=None if seed % 2 else seed,
        repeats=repeats,
        spike_counters=spike_counters,
    )
    decoded = decode_result(json.loads(json.dumps(encode_result(result))))
    for name in ("scores", "accuracy", "labels", "class_neuron_counts", "cores"):
        original, roundtripped = getattr(result, name), getattr(decoded, name)
        assert original.dtype == roundtripped.dtype
        assert original.shape == roundtripped.shape
        assert original.tobytes() == roundtripped.tobytes()
    if with_counters:
        assert decoded.spike_counters.dtype == spike_counters.dtype
        assert decoded.spike_counters.tobytes() == spike_counters.tobytes()
    else:
        assert decoded.spike_counters is None
    assert decoded.copy_levels == result.copy_levels
    assert decoded.spf_levels == result.spf_levels
    assert decoded.backend == result.backend
    assert decoded.seed == result.seed
    assert decoded.repeats == result.repeats


@settings(max_examples=60, deadline=None)
@given(
    shape=st.lists(st.integers(0, 4), min_size=0, max_size=3),
    dtype=st.sampled_from(["float64", "int64", "bool"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_array_roundtrip_any_shape_and_dtype(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    if dtype == "float64":
        array = rng.standard_normal(shape)
    elif dtype == "int64":
        array = rng.integers(-(2**40), 2**40, size=shape)
    else:
        array = rng.random(shape) < 0.5
    decoded = decode_array(json.loads(json.dumps(encode_array(array))))
    assert decoded.dtype == array.dtype
    assert decoded.shape == array.shape
    assert decoded.tobytes() == array.tobytes()
    assert decoded.flags.writeable
    assert decoded.dtype.isnative


@settings(max_examples=100, deadline=None)
@given(
    bits=st.lists(st.integers(0, 2**64 - 1), max_size=12),
    values=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12),
)
def test_float64_roundtrip_keeps_every_bit_pattern(bits, values):
    """-0.0, both infinities and NaNs (payload bits included) survive."""
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
    array = np.concatenate(
        [
            np.asarray(bits, dtype=np.uint64).view(np.float64),
            np.asarray(values + specials, dtype=np.float64),
        ]
    )
    decoded = decode_array(json.loads(json.dumps(encode_array(array))))
    assert decoded.dtype == np.float64
    assert decoded.tobytes() == array.tobytes()


def test_big_endian_input_decodes_to_the_same_values():
    array = np.arange(6, dtype=">i8").reshape(2, 3)
    decoded = decode_array(encode_array(array))
    assert decoded.dtype.isnative
    assert np.array_equal(decoded, array)


# ----------------------------------------------------------------------
# strictness: malformed payloads are typed errors, not silent defaults
# ----------------------------------------------------------------------
def test_unknown_field_rejected():
    with pytest.raises(CodecError, match="unknown request fields"):
        decode_request({"model": "tea", "copy_level": [1]})


def test_missing_model_rejected():
    with pytest.raises(CodecError, match="missing the 'model'"):
        decode_request({"copy_levels": [1]})


def test_bool_is_not_an_integer():
    with pytest.raises(CodecError, match="repeats must be an integer"):
        decode_request({"model": "tea", "repeats": True})
    with pytest.raises(CodecError, match="entries must be integers"):
        decode_request({"model": "tea", "copy_levels": [True]})


def test_unknown_backend_rejected_at_decode_time():
    with pytest.raises(CodecError, match="unknown backend"):
        decode_request({"model": "tea", "backend": "warp-drive"})


def test_stochastic_synapses_must_be_boolean():
    with pytest.raises(CodecError, match="stochastic_synapses must be a boolean"):
        decode_request({"model": "tea", "stochastic_synapses": 1})
    assert decode_request({"model": "tea"}).stochastic_synapses is False
    wire = decode_request({"model": "tea", "stochastic_synapses": True})
    assert wire.stochastic_synapses is True


def test_non_object_body_rejected():
    with pytest.raises(CodecError, match="JSON object"):
        decode_request([1, 2, 3])


def test_value_range_violations_become_codec_errors():
    wire = decode_request({"model": "tea", "repeats": 0})
    with pytest.raises(CodecError, match="repeats must be positive"):
        to_eval_request(wire, REGISTRY)


def test_link_delay_must_be_a_non_negative_integer():
    with pytest.raises(CodecError, match="link_delay must be an integer"):
        decode_request({"model": "tea", "link_delay": 1.5})
    with pytest.raises(CodecError, match="link_delay must be an integer"):
        decode_request({"model": "tea", "link_delay": True})
    wire = decode_request({"model": "tea", "link_delay": -1})
    with pytest.raises(CodecError, match="link_delay"):
        to_eval_request(wire, REGISTRY)
    assert decode_request({"model": "tea"}).link_delay is None
    assert decode_request({"model": "tea", "link_delay": 0}).link_delay == 0


def test_unknown_model_and_dataset_are_typed():
    with pytest.raises(UnknownModelError):
        to_eval_request(decode_request({"model": "nope"}), REGISTRY)
    with pytest.raises(UnknownDatasetError):
        to_eval_request(
            decode_request({"model": "tea", "dataset": "nope"}), REGISTRY
        )


def _b64(raw: bytes) -> str:
    return base64.b64encode(raw).decode("ascii")


def test_int64_array_rejects_lossy_float_and_bool_entries():
    """The old flat ``data`` list form, whose float and bool entries numpy
    would silently truncate or coerce, is no longer a wire array."""
    good = encode_array(np.arange(2, dtype=np.int64))
    legacy = {"dtype": "int64", "shape": [2]}
    for data in ([1.7, 2], [True, 2], [1, 2]):
        with pytest.raises(CodecError, match="exactly the keys"):
            decode_array(dict(legacy, data=data))
    with pytest.raises(CodecError, match="exactly the keys"):
        decode_array(dict(good, data=[1, 2]))


def test_array_shape_data_mismatch_rejected():
    good = encode_array(np.arange(6, dtype=np.int64).reshape(2, 3))
    raw = base64.b64decode(good["b64"])
    for wrong in (raw[:-1], raw[:-8], raw + b"\x00" * 8, b""):
        with pytest.raises(CodecError, match="bytes"):
            decode_array(dict(good, b64=_b64(wrong)))
    with pytest.raises(CodecError, match="bytes"):
        decode_array(dict(good, shape=[3, 3]))


def test_b64_must_be_a_base64_string():
    good = encode_array(np.zeros(2))
    for text in ("not base64!", good["b64"] + "=", good["b64"][:-1], "é" * 4):
        with pytest.raises(CodecError, match="not base64"):
            decode_array(dict(good, b64=text))
    for value in (None, 0, [good["b64"]], good["b64"].encode()):
        with pytest.raises(CodecError, match="b64 must be a string"):
            decode_array(dict(good, b64=value))


def test_unknown_dtype_rejected():
    good = encode_array(np.zeros(2))
    for dtype in ("float32", "<f8", "object", None, 8):
        with pytest.raises(CodecError, match="unknown dtype"):
            decode_array(dict(good, dtype=dtype))
    with pytest.raises(CodecError, match="not wire-encodable"):
        encode_array(np.zeros(2, dtype=np.float32))


def test_shape_must_be_non_negative_integers():
    good = encode_array(np.zeros(0))
    for shape in ([-1], [True], [0.0], "0", None, 0):
        with pytest.raises(CodecError, match="shape"):
            decode_array(dict(good, shape=shape))


def test_bool_bytes_must_be_zero_or_one():
    good = encode_array(np.array([True, False]))
    assert decode_array(dict(good, b64=_b64(b"\x01\x00"))).tolist() == [True, False]
    with pytest.raises(CodecError, match="bool bytes"):
        decode_array(dict(good, b64=_b64(b"\x01\x02")))


def test_bad_result_array_is_a_typed_400():
    with pytest.raises(CodecError) as excinfo:
        decode_array({"dtype": "bool", "shape": [1], "b64": "Ag=="})
    status, payload = error_payload(excinfo.value)
    assert status == 400
    assert payload["error"]["type"] == "request-validation"


def test_result_missing_field_rejected():
    result = EvalResult(
        backend="vectorized",
        copy_levels=(1,),
        spf_levels=(1,),
        scores=np.zeros((1, 1, 1, 2, 2)),
        accuracy=np.zeros((1, 1, 1)),
        labels=np.zeros(2, dtype=np.int64),
        class_neuron_counts=np.ones(2, dtype=np.int64),
        cores=np.array([4], dtype=np.int64),
        seed=0,
        repeats=1,
    )
    payload = encode_result(result)
    payload.pop("scores")
    with pytest.raises(CodecError, match="missing fields"):
        decode_result(payload)


# ----------------------------------------------------------------------
# served results: every array keeps its dtype, shape and bytes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["vectorized", "chip", "board"])
def test_served_result_roundtrip_keeps_dtype_shape_and_bytes(tiny_context, backend):
    from repro.api import Session
    from repro.serve import ModelRegistry

    registry = ModelRegistry.from_context(tiny_context, methods=("tea",))
    counters = backend != "vectorized"
    result = Session().evaluate(
        EvalRequest(
            model=registry.model("tea"),
            dataset=registry.dataset("test"),
            copy_levels=(1, 2),
            spf_levels=(1, 2),
            repeats=2,
            seed=0,
            max_samples=12,
            collect_spike_counters=counters,
        ),
        backend=backend,
    )
    decoded = decode_result(json.loads(json.dumps(encode_result(result))))
    names = ["scores", "accuracy", "labels", "class_neuron_counts", "cores"]
    if counters:
        names.append("spike_counters")
    assert result.class_neuron_counts.dtype == np.float64
    for name in names:
        served, roundtripped = getattr(result, name), getattr(decoded, name)
        assert roundtripped.dtype == served.dtype, name
        assert roundtripped.shape == served.shape, name
        assert roundtripped.tobytes() == served.tobytes(), name
    for name in ("backend", "copy_levels", "spf_levels", "seed", "repeats"):
        assert getattr(decoded, name) == getattr(result, name), name
