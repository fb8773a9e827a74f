"""Access-control tests for the public coin-binding store (Section 5.1)."""

import pytest

from repro.crypto.dsa import DsaSignature, dsa_generate
from repro.crypto.params import PARAMS_TEST_512
from repro.dht.binding_store import BindingStore, WriteRejected
from repro.dht.chord import ChordRing
from repro.messages.envelope import SignedMessage, decode_signed, seal
from repro.net.transport import Transport

P = PARAMS_TEST_512


@pytest.fixture()
def store():
    transport = Transport()
    ring = ChordRing(transport, size=4)
    broker = dsa_generate(P)
    return BindingStore(ring, P, broker.public), broker


def make_record(coin_keypair, seq, holder_y=111, signer=None, exp=10_000):
    """A binding signed by the coin key (or ``signer``): the published value."""
    payload = {"coin_y": coin_keypair.public.y, "holder_y": holder_y, "seq": seq, "exp": exp}
    return seal(signer if signer is not None else coin_keypair, payload)


class TestAccessControl:
    def test_owner_write_and_public_read(self, store):
        binding_store, _broker = store
        coin = dsa_generate(P)
        binding_store.publish(make_record(coin, seq=1))
        fetched = binding_store.fetch(coin.public.y)
        assert fetched is not None and fetched.payload["seq"] == 1

    def test_broker_write_allowed(self, store):
        binding_store, broker = store
        coin = dsa_generate(P)
        binding_store.publish(make_record(coin, seq=1, signer=broker))
        assert binding_store.fetch(coin.public.y).signer.y == broker.public.y

    def test_third_party_write_rejected(self, store):
        binding_store, _broker = store
        coin = dsa_generate(P)
        mallory = dsa_generate(P)
        record = make_record(coin, seq=1, signer=mallory)
        with pytest.raises(WriteRejected, match="not signed by the coin key or the broker"):
            binding_store.publish(record)

    def test_forged_broker_claim_rejected(self, store):
        # Claiming the broker's key without its secret: the signer field says
        # pk_B, the signature is Mallory's.
        binding_store, broker = store
        coin = dsa_generate(P)
        mallory = dsa_generate(P)
        record = make_record(coin, seq=1, signer=mallory)
        forged = SignedMessage(record.payload_bytes, broker.public, record.signature)
        with pytest.raises(WriteRejected, match="bad signature"):
            binding_store.publish(forged)

    def test_bad_signature_rejected(self, store):
        binding_store, _broker = store
        coin = dsa_generate(P)
        record = make_record(coin, seq=1)
        sig = record.signature
        tampered = SignedMessage(
            record.payload_bytes, record.signer, DsaSignature(r=sig.r, s=(sig.s + 1) % P.q or 1)
        )
        with pytest.raises(WriteRejected, match="bad signature"):
            binding_store.publish(tampered)


class TestRollbackProtection:
    def test_stale_sequence_rejected(self, store):
        binding_store, _broker = store
        coin = dsa_generate(P)
        binding_store.publish(make_record(coin, seq=5))
        with pytest.raises(WriteRejected, match="stale"):
            binding_store.publish(make_record(coin, seq=5))
        with pytest.raises(WriteRejected, match="stale"):
            binding_store.publish(make_record(coin, seq=4))

    def test_monotonic_updates_accepted(self, store):
        binding_store, _broker = store
        coin = dsa_generate(P)
        for seq in (1, 2, 7):
            binding_store.publish(make_record(coin, seq=seq))
        assert binding_store.fetch(coin.public.y).payload["seq"] == 7

    def test_even_broker_cannot_roll_back(self, store):
        # The downtime rule lets the broker write, but monotonicity still
        # applies — otherwise a compromised broker could resurrect holders.
        binding_store, broker = store
        coin = dsa_generate(P)
        binding_store.publish(make_record(coin, seq=10))
        with pytest.raises(WriteRejected, match="stale"):
            binding_store.publish(make_record(coin, seq=3, signer=broker))


class TestNoWriteSharesAStoredSeq:
    """Not even the broker's: a broker that died before journaling a
    downtime binding adopts the published one (tests/store/
    test_downtime_publish.py), so the list never needs to take a second
    binding at a stored ``seq``."""

    @pytest.mark.parametrize(
        "first, second",
        [("broker", "broker"), ("broker", "owner"), ("owner", "broker"), ("owner", "owner")],
    )
    def test_a_re_signed_binding_at_the_stored_seq_is_refused(self, store, first, second):
        binding_store, broker = store
        coin = dsa_generate(P)
        signers = {"broker": broker, "owner": coin}
        stored = make_record(coin, seq=8, signer=signers[first], exp=100)
        binding_store.publish(stored)
        with pytest.raises(WriteRejected, match="stale"):
            binding_store.publish(make_record(coin, seq=8, signer=signers[second], exp=200))
        assert binding_store.fetch(coin.public.y).encode() == stored.encode()

    def test_a_copy_with_another_commit_hint_is_refused(self, store):
        # The hint is outside what the signature covers, so anyone can read a
        # binding, change its hint and still hold a valid signature.
        binding_store, broker = store
        coin = dsa_generate(P)
        stored = make_record(coin, seq=8, signer=broker)
        binding_store.publish(stored)
        sig = stored.signature
        for commit in (None, (sig.commit or 1) + 1):
            copy = SignedMessage(
                stored.payload_bytes, stored.signer, DsaSignature(r=sig.r, s=sig.s, commit=commit)
            )
            assert copy.verify()
            with pytest.raises(WriteRejected, match="stale"):
                binding_store.publish(copy)
        assert binding_store.fetch(coin.public.y).encode() == stored.encode()

    def test_a_replay_of_an_earlier_broker_binding_is_refused(self, store):
        binding_store, broker = store
        coin = dsa_generate(P)
        earlier = make_record(coin, seq=8, signer=broker, exp=100)
        binding_store.publish(earlier)
        later = make_record(coin, seq=9, signer=broker, exp=200)
        binding_store.publish(later)
        for replay in (earlier, later):
            with pytest.raises(WriteRejected, match="stale"):
                binding_store.publish(replay)
        assert binding_store.fetch(coin.public.y).encode() == later.encode()


class TestFetch:
    def test_missing_coin(self, store):
        binding_store, _broker = store
        coin = dsa_generate(P)
        assert binding_store.fetch(coin.public.y) is None

    def test_record_encoding_roundtrip(self, store):
        # The stored value is the envelope's own bytes, commit hint included.
        binding_store, _broker = store
        coin = dsa_generate(P)
        record = make_record(coin, seq=3)
        assert record.signature.commit is not None
        assert decode_signed(record.encode(), P) == record
        binding_store.publish(record)
        assert binding_store.fetch(coin.public.y).encode() == record.encode()

    def test_malformed_record_rejected(self, store):
        binding_store, _broker = store
        result = binding_store.ring.put(b"whopay-binding|junk", b"not-a-record")
        assert not result["ok"]
