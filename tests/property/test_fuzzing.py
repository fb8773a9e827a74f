"""Fuzz-style robustness: malformed inputs must fail cleanly, never crash.

Protocol endpoints face attacker-controlled bytes; every decoder and
verifier must convert garbage into a typed error (or a False verdict),
never an unhandled exception class or a hang.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PeerConfig, protocol
from repro.core.errors import ProtocolError
from repro.crypto.params import PARAMS_TEST_512
from repro.messages.codec import CodecError, decode, encode

P = PARAMS_TEST_512


class TestCodecFuzz:
    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_decode_never_crashes(self, data):
        try:
            value = decode(data)
        except CodecError:
            return
        # If it decoded, it must re-encode to the same bytes (canonicity).
        assert encode(value) == data

    @given(st.binary(min_size=1, max_size=200), st.integers(min_value=0, max_value=199))
    @settings(max_examples=200, deadline=None)
    def test_bit_flips_never_crash(self, data, position):
        blob = encode({"k": data})
        mutated = bytearray(blob)
        mutated[position % len(blob)] ^= 0xFF
        try:
            decode(bytes(mutated))
        except CodecError:
            pass  # the only acceptable failure mode


class TestEnvelopeFuzz:
    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_decode_signed_fails_typed(self, data):
        with pytest.raises((CodecError, KeyError, TypeError, ValueError)):
            message = protocol.decode_signed(data, P)
            # Decoding random bytes into a valid envelope is effectively
            # impossible; if it ever happens, it must at least not verify.
            assert not message.verify()

    @given(st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_decode_dual_fails_typed(self, data):
        with pytest.raises((CodecError, KeyError, TypeError, ValueError)):
            protocol.decode_dual(data, P)


class TestBrokerEndpointFuzz:
    @given(st.binary(max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_purchase_endpoint_rejects_garbage(self, data):
        from repro.core.network import WhoPayNetwork

        net = WhoPayNetwork(params=P)
        net.add_peer("alice", PeerConfig(balance=5))
        with pytest.raises(Exception) as exc_info:
            net.transport.request("alice", "broker", protocol.PURCHASE, data)
        # Typed protocol failure, not an arbitrary internal crash.
        assert isinstance(exc_info.value, ProtocolError)
        assert not net.broker.valid_coins  # nothing was minted

    @given(st.binary(max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_deposit_endpoint_rejects_garbage(self, data):
        from repro.core.network import WhoPayNetwork

        net = WhoPayNetwork(params=P)
        net.add_peer("alice", PeerConfig(balance=5))
        before = net.broker.balance("alice")
        with pytest.raises(Exception) as exc_info:
            net.transport.request("alice", "broker", protocol.DEPOSIT, data)
        assert isinstance(exc_info.value, ProtocolError)
        assert net.broker.balance("alice") == before  # nothing credited


# -- the six holder endpoints -------------------------------------------------
#
# Both servers, the verification pool and the judge open a holder request
# through ``protocol.open_holder_request``; whatever it calls malformed is a
# ``ProtocolError`` at the servers, ``False`` at the pool, ``None`` at the
# judge — and leaves no trace anywhere.

#: (wire kind, op, who serves it)
HOLDER_ENDPOINTS = [
    (row.broker_kind, op, "broker") for op, row in protocol.HOLDER_OPS.items()
] + [
    (row.owner_kind, op, "alice") for op, row in protocol.HOLDER_OPS.items() if row.owner_kind
]

#: What a nested envelope field may not be: not a codec value, not bytes, a
#: codec value that is no envelope, an envelope with a mistyped scalar.
NESTED_JUNK = (
    b"\x00garbage",
    7,
    encode({"a": 1}),
    encode({"payload": b"", "signer_y": 1, "sig_r": "1", "sig_s": 1, "sig_c": None}),
)


@pytest.fixture(scope="module")
def holder_rig(tmp_path_factory):
    """Durable broker and owner (alice); bob holds one of alice's coins."""
    from repro.core.network import WhoPayNetwork

    net = WhoPayNetwork(params=P, store_dir=tmp_path_factory.mktemp("holder-fuzz"))
    alice = net.add_peer("alice", PeerConfig(balance=5, durable=True))
    bob = net.add_peer("bob", PeerConfig(balance=5))
    net.add_peer("carol")
    state = alice.purchase()
    alice.issue("bob", state.coin_y)
    return net, alice, bob, state.coin_y


def _sealed(rig, op, **junk):
    """A validly dual-signed ``op`` request of bob's, then ``junk`` swapped in."""
    from repro.anonymity.pseudonym import funding_voucher
    from repro.messages.envelope import group_seal

    net, _alice, bob, coin_y = rig
    held = bob.wallet[coin_y]
    extras = {
        "transfer": {"new_holder_y": bob.identity.public.y, "nonce": b"n" * 16},
        "renewal": {},
        "deposit": {"payout_to": "bob"},
        "top_up": {"delta": 1, "funding_auth": funding_voucher(bob.identity, "bob", 1, coin_y)},
    }[op]
    payload = protocol.HolderOperation(
        op=op,
        coin_cert=held.coin.encode(),
        proof_binding=held.binding.signed.encode(),
        proof_via_broker=False,
        **extras,
    ).to_payload()
    payload.update(junk)
    gpk = net.judge.group_public_key()
    return protocol.encode_dual(group_seal(held.holder_keypair, bob.member_key, gpk, payload))


def _pool_and_judge_verdicts(rig, data):
    """How the verification pool and the judge read the same request bytes."""
    from repro.core.audit import verify_relinquishment
    from repro.pipeline import VerificationPool
    from repro.pipeline.verify import JOB_HOLDER

    net, _alice, _bob, coin_y = rig
    pool = VerificationPool(P, net.broker.public_key, [net.judge.group_public_key()])
    return pool.verify([(JOB_HOLDER, data)])[0], verify_relinquishment(data, P, net.judge, coin_y)


def _assert_refused_without_trace(rig, kind, server, payload, error=ProtocolError):
    import dataclasses

    net, alice, _bob, coin_y = rig

    def trace():
        return {
            "journals": (net.broker.store.next_lsn, alice.store.next_lsn),
            "relinquishments": list(alice.owned[coin_y].relinquishments),
            "fraud_events": len(net.broker.fraud_events),
            "alice": dataclasses.asdict(alice.counts),
            "broker": dataclasses.asdict(net.broker.counts),
        }

    before = trace()
    with pytest.raises(error):
        net.transport.request("bob", server, kind, payload)
    after = trace()
    # The one thing that may move: the endpoint counting the request it got.
    moved = {name for name, count in after["broker"].items() if count != before["broker"][name]}
    assert len(moved) <= (server == "broker")
    after["broker"] = before["broker"]
    assert after == before


class TestHolderEndpointFuzz:
    @pytest.mark.parametrize("kind,op,server", HOLDER_ENDPOINTS)
    @given(data=st.binary(max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_bytes_are_a_protocol_error(self, holder_rig, kind, op, server, data):
        _assert_refused_without_trace(holder_rig, kind, server, data)
        if kind == protocol.TRANSFER_REQUEST:  # its envelope travels inside a dict
            wrapped = {"envelope": data, "payee": "carol", "nonce": b""}
            _assert_refused_without_trace(holder_rig, kind, server, wrapped)

    @pytest.mark.parametrize("junk", NESTED_JUNK, ids=("garbage", "int", "not-an-envelope", "mistyped-scalar"))
    @pytest.mark.parametrize("field", ("coin_cert", "proof_binding", "funding_auth"))
    @pytest.mark.parametrize("kind,op,server", HOLDER_ENDPOINTS)
    def test_signed_envelope_with_a_malformed_nested_field(self, holder_rig, kind, op, server, field, junk):
        data = _sealed(holder_rig, op, **{field: junk})
        payload = data
        if kind == protocol.TRANSFER_REQUEST:
            payload = {"envelope": data, "payee": "carol", "nonce": b"n" * 16}
        _assert_refused_without_trace(holder_rig, kind, server, payload)
        # The pool and the judge read the same bytes the same way.
        assert _pool_and_judge_verdicts(holder_rig, data) == (False, None)

    @pytest.mark.parametrize("version", (10**6, 1 << 70))
    @pytest.mark.parametrize("kind,op,server", HOLDER_ENDPOINTS)
    def test_a_roster_version_the_judge_never_issued(self, holder_rig, kind, op, server, version):
        # Well-formed, so it opens — and the snapshot it names does not exist.
        # That used to leave both servers as a bare GroupSignatureError.
        import dataclasses

        from repro.core.errors import VerificationFailed

        envelope = protocol.decode_dual(_sealed(holder_rig, op), P)
        data = protocol.encode_dual(dataclasses.replace(envelope, roster_version=version))
        payload = data
        if kind == protocol.TRANSFER_REQUEST:
            payload = {"envelope": data, "payee": "carol", "nonce": b"n" * 16}
        _assert_refused_without_trace(holder_rig, kind, server, payload, VerificationFailed)
        assert _pool_and_judge_verdicts(holder_rig, data) == (False, None)

    @pytest.mark.parametrize("kind,op,server", HOLDER_ENDPOINTS)
    def test_the_untampered_request_is_well_formed_everywhere(self, holder_rig, kind, op, server):
        # Control for the corpus above: without the junk the same bytes open
        # at every site (and pass the pool's and the judge's verification).
        _net, _alice, bob, coin_y = holder_rig
        data = _sealed(holder_rig, op)
        assert protocol.open_holder_request(data, P, kind).operation.op == op
        held = bob.wallet[coin_y]
        assert _pool_and_judge_verdicts(holder_rig, data) == (
            True, (held.holder_keypair.public.y, held.binding.seq)
        )
