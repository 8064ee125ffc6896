"""Zero-copy wire frames: bit-identity, laziness, and forced-bytes edges.

The load-bearing guarantee is that laziness is *unobservable* on the wire:
``bytes(WireFrame(v))`` must be bit-identical to the eager
``BinaryCodec().encode(v)`` on an arbitrary value corpus, lengths must be
exact without materializing, and every edge that genuinely needs bytes
(crypto, chaos corruption, the WAL) must keep receiving them.
"""

import enum
from collections import OrderedDict, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CodecError
from repro.interop import codec as codec_module
from repro.interop.codec import (
    _varint_size,
    _zigzag,
    BinaryCodec,
    get_codec,
    JsonCodec,
    wire_plain,
)
from repro.interop.frames import (
    PrefixedFrame,
    split_frame,
    try_decode_dict,
    WireFrame,
)
from repro.netsim import topology
from repro.netsim.failures import FrameCorruptor
from repro.netsim.medium import IDEAL_RADIO
from repro.netsim.packet import Packet
from repro.recovery.wal import StableStorage
from repro.replication.log import LogEntry
from repro.replication.replica import _ENTRIES
from repro.routing import base as routing_base
from repro.routing.base import RoutingAgent, build_routed_network
from repro.routing.flooding import FloodingRouter
from repro.transport.base import Address
from repro.transport.endpoint import MessageEndpoint
from repro.transport.inmemory import InMemoryFabric
from repro.transport.secure import SecureChannel
from repro.transport.simnet import SimFabric

# Same JSON-like value model the codec property tests use.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=40),
    st.binary(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)

int64s = st.integers(min_value=-(2**63), max_value=2**63 - 1)


class TestWireFrameIdentity:
    @given(json_values)
    @settings(max_examples=200)
    def test_bytes_identical_to_eager_encode(self, value):
        codec = BinaryCodec()
        assert bytes(WireFrame(value, codec)) == codec.encode(value)

    @given(json_values)
    @settings(max_examples=200)
    def test_length_exact_without_materializing(self, value):
        codec = BinaryCodec()
        frame = WireFrame(value, codec)
        assert len(frame) == len(codec.encode(value))
        # len() must not have forced the encoding — payload_bytes accounting
        # on the simulated fabrics relies on this staying lazy.
        assert frame._encoded is None

    @given(json_values)
    @settings(max_examples=100)
    def test_materialized_bytes_decode_to_original(self, value):
        codec = BinaryCodec()
        assert codec.decode(bytes(WireFrame(value, codec))) == codec.decode(
            codec.encode(value)
        )

    def test_materialization_cached(self):
        frame = WireFrame({"a": 1}, BinaryCodec())
        assert bytes(frame) is bytes(frame)

    def test_repr_does_not_materialize_message(self):
        frame = WireFrame({"a": 1}, BinaryCodec())
        repr(frame)
        assert frame._encoded is None


class Level(enum.IntEnum):
    LOW = 0
    NEGATIVE = -300
    HIGH = 2**40


class Name(str):
    pass


Pair = namedtuple("Pair", "left right")

# Values that reach the walker through its fallback rows — subclasses of the
# listed types, resolved by ``issubclass`` once — and through the rows frames
# register, mixed with the exact types at every depth.
fallback_scalars = st.one_of(
    json_scalars,
    st.sampled_from(list(Level)),
    st.text(max_size=20).map(Name),
    st.binary(max_size=20).map(bytearray),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(min_value=-(2**200), max_value=-(2**64)),
)


def _fallback_containers(children):
    dicts = st.dictionaries(st.text(max_size=8), children, max_size=4)
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.tuples(children, children).map(lambda pair: Pair(*pair)),
        dicts,
        dicts.map(OrderedDict),
        dicts.map(lambda d: WireFrame(d, BinaryCodec())),
        dicts.map(lambda d: PrefixedFrame(b"\x01\x02", WireFrame(d, BinaryCodec()))),
        st.lists(children, max_size=3).map(
            lambda args: LogEntry(1, 2, "rid", "put", tuple(args))),
    )


fallback_values = st.recursive(fallback_scalars, _fallback_containers,
                               max_leaves=15)


# Dict fields where the size column turns: either side of the two-byte ints
# (-64 <= v < 64) and of 64 bits, bool / IntEnum / str subclasses (another
# type's row), text of one-, two- and three-byte code points on either side
# of the one-byte length prefix.
_EDGE_INTS = [-65, -64, -1, 0, 63, 64, 2**62, -(2**62), 2**63 - 1, -(2**63),
              2**63, -(2**63) - 1, 2**200, -(2**200)]
_EDGE_TEXTS = [unit * length for unit in ("a", "\u00e9", "\u20ac")
               for length in (0, 127, 128, 20_000)]
dict_field_edges = (
    _EDGE_INTS + [True, False] + list(Level) + [Level(0)]
    + _EDGE_TEXTS + [Name(text) for text in _EDGE_TEXTS[:8]])


def _is_wire_plain(value):
    if type(value) is list:
        return all(_is_wire_plain(item) for item in value)
    if type(value) is dict:
        return all(_is_wire_plain(item) for item in value.values())
    return not isinstance(value, (tuple, dict, bytearray, WireFrame,
                                  PrefixedFrame, LogEntry))


class TestWalkerTable:
    """One table row per type holds size, encode and plain side by side;
    these pin that the columns agree on every row, fallback rows included."""

    @given(fallback_values)
    @settings(max_examples=300)
    def test_size_equals_encode_on_every_row(self, value):
        codec = BinaryCodec()
        assert codec.encoded_size(value) == len(codec.encode(value))

    @given(fallback_values)
    @settings(max_examples=200)
    def test_wire_plain_is_what_decode_returns(self, value):
        codec = BinaryCodec()
        plain = wire_plain(value)
        assert plain == codec.decode(codec.encode(value))
        assert _is_wire_plain(plain)

    @given(st.dictionaries(st.text(max_size=12), st.integers(), max_size=6))
    def test_non_ascii_and_memoised_keys_size_exactly(self, value):
        codec = BinaryCodec()
        for _ in range(2):  # second pass reads every key header from the memo
            assert codec.encoded_size(value) == len(codec.encode(value))

    @pytest.mark.parametrize("value", dict_field_edges, ids=lambda v: (
        f"{type(v).__name__}-{len(v)}x{v[:1]!a}" if isinstance(v, str)
        else f"{type(v).__name__}-{int(v)}"))
    def test_dict_field_at_a_size_edge(self, value):
        codec = BinaryCodec()
        for message in ({"k": value}, {"op": "x", "k": value, "n": 7}):
            assert codec.encoded_size(message) == len(codec.encode(message))
            assert len(WireFrame(message, codec)) == len(codec.encode(message))

    @given(st.dictionaries(st.text(max_size=8),
                           st.sampled_from(dict_field_edges), max_size=6))
    @settings(max_examples=200)
    def test_dict_fields_mixed_across_the_size_edges(self, value):
        codec = BinaryCodec()
        assert codec.encoded_size(value) == len(codec.encode(value))

    def test_two_byte_ints_are_exactly_minus_64_to_63(self):
        codec = BinaryCodec()
        empty = codec.encoded_size({"k": None}) - 1
        sizes = {v: codec.encoded_size({"k": v}) - empty
                 for v in range(-70, 70)}
        assert {v for v, size in sizes.items() if size == 2} == set(
            range(-64, 64))
        # A bool is one tag byte, never an int's two.
        assert codec.encoded_size({"k": True}) - empty == 1

    def test_key_header_memo_is_bounded(self, monkeypatch):
        codec = BinaryCodec()
        monkeypatch.setattr(codec_module, "_KEY_HEADERS_MAX",
                            len(codec_module._KEY_HEADERS))
        value = {"a key no protocol uses \u00e9": 1}
        assert codec.encoded_size(value) == len(codec.encode(value))
        assert "a key no protocol uses \u00e9" not in codec_module._KEY_HEADERS

    def test_subclass_resolves_once_to_its_base_row(self):
        codec = BinaryCodec()
        assert codec.encode(Level.HIGH) == codec.encode(2**40)
        assert codec.encode(Pair(1, 2)) == codec.encode([1, 2])
        rows = codec_module._ROWS
        assert rows[Level] is rows[int] and rows[Pair] is rows[tuple]
        # bool is listed before int, so it never takes the int row.
        assert codec.encode(True) == b"T" and codec.encoded_size(False) == 1

    @pytest.mark.parametrize(
        "value",
        [
            {1: "a"},
            {"outer": {2: 1}},
            [{("k",): 1}],
            {"s": {1, 2}},
            [object()],
            {"z": 1.5j},
            OrderedDict([(b"k", 1)]),
            "\ud800",
            {"\ud800": 1},
        ],
        ids=["int-key", "nested-int-key", "tuple-key", "set", "object",
             "complex", "bytes-key", "lone-surrogate", "lone-surrogate-key"],
    )
    def test_encode_and_size_refuse_the_same_values(self, value):
        codec = BinaryCodec()
        with pytest.raises(CodecError) as from_encode:
            codec.encode(value)
        with pytest.raises(CodecError) as from_size:
            codec.encoded_size(value)
        assert str(from_encode.value) == str(from_size.value)


# Log entries whose args nest every container a command may carry: lists,
# dicts, tuples and bytes, at any depth.
_entry_args = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=12,
)


def _entries(args):
    return st.lists(st.builds(
        LogEntry, st.integers(min_value=0, max_value=2**70), int64s,
        st.text(max_size=12), st.text(max_size=12),
        st.lists(args, max_size=4).map(tuple)), max_size=4)


def _append(entries):
    return {"op": "append", "term": 3, "commit": 7, "prev": 6,
            "prev_term": 2, "entries": entries}


class TestLogEntryRecords:
    """An append frame carries the log entries themselves; the codec must
    size and encode it exactly as the same frame of ``to_wire()`` dicts."""

    @given(_entries(_entry_args))
    @settings(max_examples=200)
    def test_sized_and_encoded_as_the_dict_form(self, entries):
        codec = BinaryCodec()
        records = _append(entries)
        dicts = _append([entry.to_wire() for entry in entries])
        assert codec.encoded_size(records) == codec.encoded_size(dicts)
        assert codec.encode(records) == codec.encode(dicts)
        assert len(WireFrame(records, codec)) == len(codec.encode(dicts))
        assert wire_plain(records) == codec.decode(codec.encode(dicts))

    @given(_entries(json_values))
    @settings(max_examples=200)
    def test_materialized_frame_parses_back_to_equal_entries(self, entries):
        # Args of lists, dicts and bytes decode to equal values; a tuple
        # would come back a list, as it does in any message.
        codec = BinaryCodec()
        decoded = codec.decode(WireFrame(_append(entries), codec).materialize())
        assert _ENTRIES(decoded["entries"]) == entries
        assert all(LogEntry.from_wire(entry) is entry for entry in entries)

    @given(_entries(_entry_args))
    @settings(max_examples=100)
    def test_json_and_sml_encode_the_dict_form_or_refuse(self, entries):
        for codec in (JsonCodec(), get_codec("sml")):
            try:
                encoded = codec.encode(_append(entries))
            except CodecError:
                continue
            expected = codec.encode(_append([e.to_wire() for e in entries]))
            assert encoded == expected, codec.name


class TestDeriveInt:
    @given(
        st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
        int64s,
        int64s,
    )
    @settings(max_examples=100)
    def test_matches_full_reencode(self, base, old, new):
        codec = BinaryCodec()
        message = {**base, "t": old}
        frame = WireFrame(message, codec)
        derived = frame.derive_int("t", new)
        expected = codec.encode({**message, "t": new})
        assert len(derived) == len(expected)
        assert bytes(derived) == expected

    @given(
        st.dictionaries(st.text(max_size=8), json_scalars, max_size=4),
        int64s,
        int64s,
    )
    @settings(max_examples=100)
    def test_splices_when_parent_materialized(self, base, old, new):
        # Derived from a parent whose bytes exist (the corruptor forced
        # them), a frame knows its exact length without encoding and, when
        # asked, re-encodes its own dict; the parent's bytes stay as cached.
        codec = BinaryCodec()
        message = {**base, "t": old}
        frame = WireFrame(message, codec)
        parent_bytes = bytes(frame)
        derived = frame.derive_int("t", new)
        expected = codec.encode({**message, "t": new})
        assert len(derived) == len(expected)
        assert derived._encoded is None
        assert bytes(derived) == expected
        assert frame._encoded is parent_bytes == codec.encode(message)

    def test_rejects_non_int_field(self):
        frame = WireFrame({"t": "nope"}, BinaryCodec())
        with pytest.raises(CodecError):
            frame.derive_int("t", 3)
        frame = WireFrame({"t": True}, BinaryCodec())
        with pytest.raises(CodecError):
            frame.derive_int("t", 3)

    def test_does_not_mutate_parent(self):
        codec = BinaryCodec()
        frame = WireFrame({"t": 9, "b": b"x"}, codec)
        frame.derive_int("t", 8)
        assert frame.message["t"] == 9
        assert bytes(frame) == codec.encode({"t": 9, "b": b"x"})


class TestPrefixedFrame:
    def test_len_and_bytes_without_forcing_body(self):
        codec = BinaryCodec()
        body = WireFrame({"k": "v"}, codec)
        frame = PrefixedFrame(b"HDR", body)
        assert len(frame) == 3 + len(codec.encode({"k": "v"}))
        assert body._encoded is None  # len stayed lazy
        assert bytes(frame) == b"HDR" + codec.encode({"k": "v"})

    def test_split_peels_prefix_by_reference(self):
        body = WireFrame({"k": 1}, BinaryCodec())
        frame = PrefixedFrame(b"ABCD", body)
        header, peeled = split_frame(frame, 4)
        assert header == b"ABCD"
        assert peeled is body  # zero-copy: the very same lazy frame

    def test_split_falls_back_to_bytes_on_shape_mismatch(self):
        frame = PrefixedFrame(b"AB", b"CDEF")  # prefix shorter than header
        header, rest = split_frame(frame, 4)
        assert header == b"ABCD" and rest == b"EF"

    def test_split_reports_truncation(self):
        header, rest = split_frame(b"xy", 4)
        assert header is None and rest == b"xy"


class TestPassthrough:
    def test_try_decode_dict_returns_original_dict_without_encoding(self):
        codec = BinaryCodec()
        message = {"op": "x", "n": 3}
        frame = WireFrame(message, codec)
        extracted = try_decode_dict(codec, frame)
        assert extracted is message  # identity, not a copy
        assert frame._encoded is None  # encode never ran

    def test_codec_mismatch_materializes_real_bytes(self):
        binary, json_codec = BinaryCodec(), JsonCodec()
        frame = WireFrame({"a": 1}, binary)
        # The JSON receiver sees its own view of the sender's real bytes —
        # binary wire bytes are not JSON, so the counted-drop path fires.
        assert try_decode_dict(json_codec, frame) is None
        assert frame._encoded is not None
        json_frame = WireFrame({"a": 1}, json_codec)
        assert try_decode_dict(json_codec, json_frame) is json_frame.message

    def test_non_dict_frame_is_not_extracted(self):
        codec = BinaryCodec()
        frame = WireFrame([1, 2, 3], codec)
        assert try_decode_dict(codec, frame) is None
        assert frame._encoded is None


class _Taker(MessageEndpoint):
    # "c", the op field a routing agent reads as control traffic, so one
    # message reaches a handler through either receiver.
    OP_FIELD = "c"
    OPS = {"x": ({"n": int}, "_on_x")}

    def __init__(self, transport):
        super().__init__(transport)
        self.taken = []

    def _on_x(self, source, message):
        self.taken.append(message)


_X = {"c": "x", "n": 3}


def _encoded_frame(message):
    frame = WireFrame(message, BinaryCodec())
    bytes(frame)
    return frame


#: What can arrive, by how it was built: ``(build, the message the one
#: decoder yields or None for a drop, the forced encodes it adds to
#: ``WireFrame.materialized``)``. The receivers' codec is the
#: registry's binary singleton, ``BinaryCodec()`` is not it.
ARRIVALS = {
    "reference-lazy": (
        lambda: WireFrame(dict(_X), get_codec("binary")), _X, 0),
    "reference-lazy-fresh-codec": (
        lambda: WireFrame(dict(_X), BinaryCodec()), _X, 0),
    "reference-encoded": (lambda: _encoded_frame(dict(_X)), _X, 0),
    "dict-subclass": (
        lambda: WireFrame(OrderedDict(_X), BinaryCodec()), _X, 0),
    "bytes": (lambda: BinaryCodec().encode(_X), _X, 0),
    "garbage": (lambda: b"\xff\x00", None, 0),
    "prefixed": (
        lambda: PrefixedFrame(b"", WireFrame(dict(_X), BinaryCodec())),
        _X, 1),
    "cross-codec": (lambda: WireFrame(dict(_X), JsonCodec()), None, 1),
    "not-a-dict": (
        lambda: WireFrame([1, 2, 3], BinaryCodec()), None, 0),
    "not-a-dict-encoded": (lambda: _encoded_frame(7), None, 0),
}


def _arrive(receive, arrival):
    """Hand one built payload to ``receive``; the forced encodes it added."""
    payload = ARRIVALS[arrival][0]()
    before = WireFrame.materialized
    receive(Address("peer", "p"), payload)
    return WireFrame.materialized - before


class TestEndpointArrivals:
    """Whatever shape a frame arrives in, the message endpoint and the
    routing agent — both calling the one decoder — hand on the message, and
    force the encodes, that the table says; what does not decode to a dict
    is one drop."""

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_message_and_counters_match_try_decode_dict(self, arrival):
        _build, message, count = ARRIVALS[arrival]
        endpoint = _Taker(InMemoryFabric().endpoint("n", "p"))
        assert _arrive(endpoint._on_message, arrival) == count
        if message is None:  # a counted drop
            assert endpoint.taken == [] and endpoint.malformed_frames == 1
        else:
            assert endpoint.taken == [message]
            assert endpoint.malformed_frames == 0

    @pytest.mark.parametrize("arrival", ARRIVALS)
    def test_routing_agent_answers_to_the_same_table(self, arrival):
        _build, message, count = ARRIVALS[arrival]
        network = topology.star(2, radius=40, radio_profile=IDEAL_RADIO)
        agent = RoutingAgent(SimFabric(network), "hub", FloodingRouter())
        taken = []
        agent.router.handle_control = lambda source, control: taken.append(
            control)
        assert _arrive(agent._on_frame, arrival) == count
        if message is None:
            assert taken == [] and agent.dropped == {"malformed": 1}
        else:
            assert taken == [message] and agent.dropped == {}

    def test_reference_frame_hands_over_the_senders_own_dict(self):
        endpoint = _Taker(InMemoryFabric().endpoint("n", "p"))
        message = dict(_X)
        frame = WireFrame(message, BinaryCodec())
        endpoint._on_message(Address("peer", "p"), frame)
        assert endpoint.taken[0] is message
        assert frame._encoded is None  # and nothing was encoded for it


class TestEndToEndZeroCopy:
    def test_routed_chain_never_materializes(self, monkeypatch):
        network = topology.linear_chain(4, spacing=60)
        fabric = SimFabric(network)
        agents = build_routed_network(fabric, lambda node: FloodingRouter())
        nodes = sorted(agents)
        src, dst = nodes[0], nodes[-1]
        src_port = agents[src].open_port("app")
        dst_port = agents[dst].open_port("app")
        received = []
        dst_port.set_receiver(lambda source, data: received.append(data))
        hops = []

        def decode(codec, payload):
            message = try_decode_dict(codec, payload)
            hops.append((payload, message))
            return message

        monkeypatch.setattr(routing_base, "try_decode_dict", decode)
        materialized = WireFrame.materialized
        src_port.send(Address(dst, "app"), b"payload")
        network.sim.run()
        assert received == [b"payload"]
        # Every hop crossed by reference: the receiver holds the sender's
        # own dict, and nothing was encoded for it.
        assert hops and all(isinstance(payload, WireFrame)
                            and message is payload.message
                            for payload, message in hops)
        assert WireFrame.materialized == materialized


class TestForcedBytesEdges:
    def test_chaos_corruption_lands_on_real_bytes(self):
        codec = BinaryCodec()
        frame = WireFrame({"op": "data", "n": 42}, codec)
        original = codec.encode({"op": "data", "n": 42})
        corruptor = FrameCorruptor(seed=1, probability=1.0, truncate_fraction=0.0)
        packet = Packet(
            source="a",
            destination="b",
            payload=("p", "q", frame),
            payload_bytes=len(frame),
        )
        mangled = corruptor(receiver_id="b", packet=packet)
        tampered = mangled.payload[2]
        assert isinstance(tampered, bytes)  # never a lazy frame downstream
        assert tampered != original
        assert len(tampered) == len(original)
        assert corruptor.corrupted == 1

    def test_secure_channel_seals_frame_plaintext(self):
        channel = SecureChannel(b"k" * 16)
        frame = WireFrame({"secret": 1}, BinaryCodec())
        sealed = channel.seal("a", frame)
        assert isinstance(sealed, bytes)
        assert channel.open(sealed) == bytes(frame)

    def test_stable_storage_stores_real_bytes(self):
        storage = StableStorage()
        frame = WireFrame({"lsn": 1}, BinaryCodec())
        storage.append(frame)
        assert type(storage.blobs[0]) is bytes
        assert storage.blobs[0] == bytes(frame)


class TestCodecRegressions:
    def test_json_rejects_nan_and_infinities(self):
        codec = JsonCodec()
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(CodecError):
                codec.encode(bad)
            with pytest.raises(CodecError):
                codec.encode({"v": [bad]})

    def test_bigint_decode_rejects_non_canonical_text(self):
        codec = BinaryCodec()
        big = 2**80
        encoded = codec.encode(big)
        assert codec.decode(encoded) == big
        digits = str(big).encode("ascii")
        for bad in (b"+" + digits, b" " + digits, b"0" + digits, digits + b"\n"):
            tampered = encoded[:1] + bytes([len(bad)]) + bad
            with pytest.raises(CodecError):
                codec.decode(tampered)

    @pytest.mark.parametrize("value", [2**63, -(2**63) - 1, 2**100])
    def test_zigzag_rejects_out_of_range(self, value):
        with pytest.raises(CodecError):
            _zigzag(value)

    @given(int64s)
    @settings(max_examples=100)
    def test_varint_size_matches_encoded_varint(self, value):
        from repro.interop.codec import _encode_varint

        zz = _zigzag(value)
        assert _varint_size(zz) == len(_encode_varint(zz))
