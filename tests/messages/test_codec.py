"""Canonical codec tests, including hypothesis round-trips."""

import ast
import collections
import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.messages.codec import CodecError, decode, encode


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


# -- hostile and damaged input ----------------------------------------------


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


class TestHostileInput:
    """What a hostile peer can send: deep nesting, lying lengths, damaged
    real messages.  Each decodes or raises ``CodecError`` — nothing else."""

    def test_depth_is_bounded_by_the_input_not_the_interpreter_stack(self):
        # A recursive decoder dies of RecursionError — not a CodecError — on
        # input a hostile peer can send; the loop just decodes it.
        depth = 20_000
        value = decode(b"\x01" + (b"l" + (1).to_bytes(8, "big")) * depth + b"n")
        for _ in range(depth):
            (value,) = value
        assert value is None

    @pytest.mark.parametrize("name", ("dual envelope", "coin certificate", "move record", "group frame"))
    def test_damaged_real_messages_decode_or_raise_a_codec_error(self, real_messages, name):
        data = real_messages[name]
        assert encode(decode(data)) == data
        outcomes = collections.Counter()
        for damaged in _mutations(data, random.Random(len(data)), 750):
            outcomes[_outcome(decode, damaged)[0]] += 1  # any other exception fails
        assert outcomes["value"] > 50 and outcomes["CodecError"] > 50  # both sides exercised

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


GOLDEN_CODEC = Path(__file__).with_name("golden_codec.json")


class TestPinnedVectors:
    """The codec's accept and reject sets, as the recursive codec the kernel
    replaced wrote them into ``golden_codec.json``: every wire type, and
    every ``CodecError`` of decode and of encode.  The kernel alone is held
    to the file (DESIGN.md §1.1, "When a kept oracle may go")."""

    vectors = json.loads(GOLDEN_CODEC.read_text())

    def test_every_wire_type_encodes_and_decodes_to_the_pinned_bytes(self):
        tags = set()
        for vector in self.vectors["accept"]:
            data = bytes.fromhex(vector["hex"])
            assert encode(ast.literal_eval(vector["value"])) == data, vector["value"]
            assert repr(decode(data)) == vector["decoded"], vector["value"]
            tags.add(data[1:2] + (data[2:3] if data[1:2] == b"i" else b""))
        assert tags == {b"n", b"t", b"f", b"i+", b"i-", b"b", b"s", b"l", b"d"}

    def test_every_decode_error_is_pinned(self):
        for vector in self.vectors["reject_decode"]:
            with pytest.raises(CodecError) as raised:
                decode(bytes.fromhex(vector["hex"]))
            assert str(raised.value) == vector["error"], vector["hex"]
        errors = {vector["error"] for vector in self.vectors["reject_decode"]}
        assert len(errors) == 8  # magic, trailing, truncated, sign, UTF-8, key type, key order, tag

    def test_every_encode_error_is_pinned(self):
        for vector in self.vectors["reject_encode"]:
            with pytest.raises(CodecError) as raised:
                encode(ast.literal_eval(vector["value"]))
            assert str(raised.value) == vector["error"], vector["value"]

    def test_the_golden_dual_envelope_is_pinned(self):
        assert hashlib.sha256(_golden_dual_envelope()).hexdigest() == GOLDEN_DUAL_SHA256
