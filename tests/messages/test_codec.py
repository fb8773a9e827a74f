"""Canonical codec tests, including hypothesis round-trips."""

import collections
import enum
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messages.codec import CodecError, decode, encode

from . import reference_codec as reference

# Strategy over the codec's value domain (recursive).
codec_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(1 << 256), max_value=1 << 256)
    | st.binary(max_size=64)
    | st.text(max_size=32),
    lambda children: st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


class TestRoundTrip:
    @given(codec_values)
    @settings(max_examples=300, deadline=None)
    def test_roundtrip_property(self, value):
        assert decode(encode(value)) == _normalize(value)

    def test_scalars(self):
        for value in (None, True, False, 0, -1, 1 << 200, -(1 << 200), b"", b"\x00", "", "héllo"):
            assert decode(encode(value)) == value

    def test_containers(self):
        value = {"a": (1, 2, (3,)), "b": {"nested": b"bytes"}, "c": None}
        assert decode(encode(value)) == value

    def test_lists_decode_as_tuples(self):
        assert decode(encode([1, 2])) == (1, 2)


class TestDeterminism:
    def test_dict_key_order_irrelevant(self):
        a = encode({"x": 1, "y": 2})
        b = encode({"y": 2, "x": 1})
        assert a == b

    def test_bool_and_int_distinct(self):
        assert encode(True) != encode(1)
        assert encode(False) != encode(0)

    def test_distinct_values_distinct_encodings(self):
        samples = [None, True, False, 0, 1, -1, b"", b"\x00", "", "0", (0,), {}, {"": 0}]
        encodings = [encode(v) for v in samples]
        assert len(set(encodings)) == len(encodings)

    def test_framing_injective(self):
        # Concatenation attacks: (b"ab",) vs (b"a", b"b") must differ.
        assert encode((b"ab",)) != encode((b"a", b"b"))


class TestErrors:
    def test_unencodable_type(self):
        with pytest.raises(CodecError):
            encode(3.14)
        with pytest.raises(CodecError):
            encode({1: "non-string key"})
        with pytest.raises(CodecError):
            encode(object())

    def test_bad_magic(self):
        with pytest.raises(CodecError):
            decode(b"\x02i+\x00")

    def test_truncated(self):
        data = encode({"k": b"value"})
        with pytest.raises(CodecError):
            decode(data[:-3])

    def test_trailing_garbage(self):
        with pytest.raises(CodecError):
            decode(encode(1) + b"x")

    def test_unknown_tag(self):
        with pytest.raises(CodecError):
            decode(b"\x01z")

    def test_non_canonical_dict_order_rejected(self):
        # Hand-craft a dict with keys out of order; decode must refuse,
        # otherwise two encodings of the same value would both be "valid".
        good = encode({"a": 1, "b": 2})
        swapped = bytearray(good)
        ia, ib = good.index(b"a", 2), good.index(b"b", 2)
        swapped[ia], swapped[ib] = swapped[ib], swapped[ia]
        with pytest.raises(CodecError):
            decode(bytes(swapped))

    def test_invalid_utf8_rejected(self):
        raw = b"\x01s" + (1).to_bytes(8, "big") + b"\xff"
        with pytest.raises(CodecError):
            decode(raw)

    def test_empty_input(self):
        with pytest.raises(CodecError):
            decode(b"")


def _normalize(value):
    """Lists become tuples on decode; normalize expectations accordingly."""
    if isinstance(value, list):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, tuple):
        return tuple(_normalize(v) for v in value)
    if isinstance(value, dict):
        return {k: _normalize(v) for k, v in value.items()}
    return value


# -- the kernel against the implementation it replaced -------------------------


class _Int(int):
    pass


class _Bytes(bytes):
    pass


class _Str(str):
    pass


class _List(list):
    pass


class _Pair(collections.namedtuple("_Pair", "left right")):
    pass


class _Colour(enum.IntEnum):
    RED = 1
    NONE = 0


class _Name(str, enum.Enum):  # ``str()`` of a member is not its value
    ALICE = "alice"


_ints = st.integers(min_value=-(1 << 600), max_value=1 << 600) | st.sampled_from([0, -1, 1, 255, 256, -256])
_keys = st.text(max_size=8) | st.text(max_size=8).map(_Str)

#: The whole encodable domain, exact types and subclasses alike (``bool`` is
#: the ``int`` subclass that must keep its own tag).
domain_values = st.recursive(
    st.none()
    | st.booleans()
    | _ints
    | _ints.map(_Int)
    | st.sampled_from(list(_Colour) + list(_Name))
    | st.binary(max_size=80)
    | st.binary(max_size=80).map(_Bytes)
    | st.text(max_size=32)
    | st.text(max_size=32).map(_Str),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(children, max_size=4).map(_List)
    | st.tuples(children, children).map(lambda pair: _Pair(*pair))
    | st.dictionaries(_keys, children, max_size=4)
    | st.dictionaries(_keys, children, max_size=4).map(collections.OrderedDict)
    | st.dictionaries(_keys, children, max_size=4).map(
        lambda entries: collections.defaultdict(list, entries)
    ),
    max_leaves=16,
)

#: Values outside the domain, alone and nested: the first one met in
#: traversal order (dict keys before dict values) names the error.
UNENCODABLE = (
    3.14,
    object(),
    bytearray(b"x"),
    {1, 2},
    {1: "int key"},
    {"ok": 1, 2: 3.14},
    [1, 3.14, {1: 2}],
    [{1: 2}, 3.14],
    {"b": object(), "a": 2.5},
    ("deep", [[{"k": (None, 1j)}]]),
)


def _outcome(function, argument):
    """What a codec call did: its value, or its ``CodecError`` message and
    cause.  Any other exception escapes and fails the test."""
    try:
        return "value", function(argument)
    except CodecError as exc:
        return "CodecError", str(exc), type(exc.__cause__)


def _mutations(data: bytes, rng: random.Random, count: int):
    """Seeded damage to ``data``: cuts, flips, overwrites (half of them with
    a tag or sign byte, which steers the damage into the structure), inserts
    and deletions."""
    for _ in range(count):
        damaged = bytearray(data)
        at = rng.randrange(len(damaged))
        choice = rng.randrange(6)
        if choice == 0:
            del damaged[at:]
        elif choice == 1:
            damaged[at] ^= 1 << rng.randrange(8)
        elif choice == 2:
            damaged[at] = rng.randrange(256)
        elif choice == 3:
            damaged[at] = rng.choice(b"ibsldntf+-")
        elif choice == 4:
            damaged[at:at] = rng.randbytes(rng.randrange(1, 10))
        else:
            del damaged[at : at + rng.randrange(1, 24)]
        yield bytes(damaged)


def _journal_payloads(store) -> list[bytes]:
    """The codec payload of every frame in a store's journal."""
    raw, payloads, at = store.journal_path.read_bytes(), [], 0
    while at < len(raw):
        size = int.from_bytes(raw[at : at + 4], "big")
        payloads.append(raw[at + 4 : at + 4 + size])
        at += 4 + size + 32
    return payloads


@pytest.fixture(scope="module")
def real_messages(tmp_path_factory):
    """Bytes the system really writes: a dual envelope with hints, a coin
    certificate, a journal ``move`` record and a group-commit frame."""
    from repro.crypto.params import PARAMS_TEST_512
    from repro.pipeline import LoadGenerator, ThroughputEngine
    from repro.pipeline.loadgen import WorkloadMix
    from repro.store.groupcommit import GroupCommitter

    generator = LoadGenerator(
        peers=3, coins_per_peer=1, params=PARAMS_TEST_512, seed=41,
        store_dir=tmp_path_factory.mktemp("codec-real"),
        mix=WorkloadMix(transfer=0.5, renewal=0.25, purchase=0.25),
    )
    store = generator.broker.store
    requests = generator.make_round(6)
    engine = ThroughputEngine(generator.broker, committer=GroupCommitter(store, max_batch=6))
    engine.run([(r.kind, r.src, r.data, r.idem) for r in requests])
    records = {data: decode(data) for data in _journal_payloads(store)}
    dual = next(r.data for r in requests if "gs_t" in decode(r.data))
    messages = {
        "dual envelope": dual,
        "coin certificate": next(iter(generator.held.values())).coin.encode(),
        "move record": next(
            data for data, record in records.items()
            if any(mut["type"] == "move" for mut in record.get("muts", ()))
        ),
        "group frame": next(data for data, record in records.items() if set(record) == {"lsn", "group"}),
    }
    assert len(set(messages.values())) == 4
    return messages


#: SHA-256 of :func:`_golden_dual_envelope`'s bytes, as the recursive codec wrote them.
GOLDEN_DUAL_SHA256 = "d8fd64bdb66d1a294382abb8bff2f7efa4b68838d77c041c43c331d0de3a9fc0"


def _golden_dual_envelope():
    """A dual envelope built from the first golden group signature (hints
    included) around a fixed inner envelope — no randomness anywhere."""
    from repro.core import protocol
    from repro.crypto.dsa import DsaSignature
    from repro.crypto.elgamal import ElGamalCiphertext
    from repro.crypto.group_signature import GroupSignature
    from repro.crypto.keys import PublicKey
    from repro.crypto.params import PARAMS_TEST_512
    from repro.messages.envelope import DualSignedMessage, SignedMessage

    golden = Path(__file__).parents[1] / "crypto" / "golden_group_signature.json"
    vector = json.loads(golden.read_text())["vectors"][0]

    def unhex(values):
        return tuple(int(value, 16) for value in values)

    signature = GroupSignature(
        ciphertext=ElGamalCiphertext(c1=int(vector["c1"], 16), c2=int(vector["c2"], 16)),
        challenges=unhex(vector["challenges"]),
        responses_r=unhex(vector["responses_r"]),
        responses_x=unhex(vector["responses_x"]),
        commitments=tuple(unhex(hint) for hint in vector["commitments"]),
    )
    roster = unhex(vector["roster"])
    inner = SignedMessage(
        payload_bytes=encode({"kind": "whopay.holder_op", "op": "renewal", "nonce": b"", "n": -7}),
        signer=PublicKey(params=PARAMS_TEST_512, y=roster[0]),
        signature=DsaSignature(r=roster[1] >> 352, s=roster[2] >> 352, commit=roster[1]),
    )
    dual = DualSignedMessage(inner=inner, group_signature=signature, roster_version=vector["version"])
    return protocol.encode_dual(dual)


class TestKernelMatchesReference:
    """``repro.messages.codec`` writes the bytes and raises the errors of the
    recursive implementation it replaced (``reference_codec``)."""

    @given(domain_values)
    @settings(max_examples=400, deadline=None)
    def test_same_bytes_over_the_whole_domain(self, value):
        data = reference.encode(value)
        assert encode(value) == data and type(encode(value)) is bytes
        assert decode(data) == reference.decode(data)

    def test_same_bytes_at_nesting_depth_50(self):
        value = [0, -1, b"", "", None, True, False, (), {}]
        for level in range(50):
            value = {"k": value, "": level} if level % 2 else [value, -level]
        data = reference.encode(value)
        assert encode(value) == data
        assert decode(data) == reference.decode(data)

    def test_depth_is_bounded_by_the_input_not_the_interpreter_stack(self):
        # The recursive decoder dies of RecursionError — not a CodecError —
        # on input a hostile peer can send; the loop just decodes it.
        depth = 20_000
        value = decode(b"\x01" + (b"l" + (1).to_bytes(8, "big")) * depth + b"n")
        for _ in range(depth):
            (value,) = value
        assert value is None

    @pytest.mark.parametrize("value", UNENCODABLE, ids=repr)
    def test_unencodable_values_raise_the_same_error(self, value):
        kernel, oracle = _outcome(encode, value), _outcome(reference.encode, value)
        assert kernel == oracle and kernel[0] == "CodecError"

    @pytest.mark.parametrize("name", ("dual envelope", "coin certificate", "move record", "group frame"))
    def test_damaged_real_messages_decode_or_fail_alike(self, real_messages, name):
        data = real_messages[name]
        assert encode(decode(data)) == data == reference.encode(reference.decode(data))
        outcomes = collections.Counter()
        for damaged in _mutations(data, random.Random(len(data)), 750):
            kernel = _outcome(decode, damaged)
            assert kernel == _outcome(reference.decode, damaged)
            outcomes[kernel[0]] += 1
        assert outcomes["value"] > 50 and outcomes["CodecError"] > 50  # both sides exercised

    def test_every_error_the_decoder_can_raise(self):
        one = (1).to_bytes(8, "big")
        damaged = {
            b"": "bad magic byte (codec version mismatch?)",
            b"\x02n": "bad magic byte (codec version mismatch?)",
            b"\x01": "truncated message",
            b"\x01i": "truncated message",
            b"\x01i*": "bad integer sign byte",
            b"\x01i+" + one[:7]: "truncated message",
            b"\x01i-" + one: "truncated message",
            b"\x01b" + one: "truncated message",
            b"\x01s" + one + b"\xff": "invalid UTF-8 in string",
            b"\x01l" + one: "truncated message",
            b"\x01d" + one + b"n": "dict key is not a string",
            b"\x01d" + one + b"l" + one + b"z": "unknown tag byte b'z'",
            b"\x01d" + (2).to_bytes(8, "big") + (b"s" + one + b"a" + b"n") * 2: "dict keys not in canonical order",
            b"\x01nn": "1 trailing bytes after value",
            b"\x01z": "unknown tag byte b'z'",
        }
        for data, message in damaged.items():
            assert _outcome(decode, data)[:2] == _outcome(reference.decode, data)[:2] == ("CodecError", message)

    def test_non_canonical_integers_decode_to_the_same_value(self):
        # Accepted before, accepted now: minus zero, leading zeros, empty body.
        for body in (b"-" + (1).to_bytes(8, "big") + b"\x00", b"+" + (3).to_bytes(8, "big") + b"\x00\x00\x07", b"+" + bytes(8)):
            assert decode(b"\x01i" + body) == reference.decode(b"\x01i" + body)

    def test_bytearray_input_decodes_as_before(self):
        data = bytearray(encode({"k": (b"raw", "text", -5)}))
        assert decode(data) == reference.decode(data)
        assert _outcome(decode, bytearray(b"\x01z")) == _outcome(reference.decode, bytearray(b"\x01z"))

    @pytest.mark.parametrize("tag", (b"i+", b"b", b"s", b"l", b"d"), ids=repr)
    @pytest.mark.parametrize("claimed", (1 << 63, (1 << 64) - 1))
    def test_a_huge_length_or_count_is_truncation_and_allocates_nothing(self, tag, claimed):
        # What follows the lie is well-formed, so running out of bytes is the only error.
        entries = b"".join(b"s" + (1).to_bytes(8, "big") + key + b"n" for key in (b"a", b"b", b"c"))
        data = b"\x01" + tag + claimed.to_bytes(8, "big") + (entries if tag == b"d" else b"n" * 64)
        tracemalloc.start()
        try:
            with pytest.raises(CodecError, match="^truncated message$"):
                decode(data)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert _outcome(reference.decode, data) == ("CodecError", "truncated message", type(None))

    def test_the_golden_dual_envelope_is_pinned(self):
        data = _golden_dual_envelope()
        assert reference.encode(reference.decode(data)) == data
        assert hashlib.sha256(data).hexdigest() == GOLDEN_DUAL_SHA256
