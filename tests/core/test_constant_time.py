"""Regression tests for constant-time secret comparisons (WP103 fixes).

The broker's sync-challenge nonce and the i3 claim tokens gate
state-revealing replies, so their equality checks must run in constant
time (``hmac.compare_digest`` / ``primitives.constant_time_eq``) and must
reject malformed inputs without crashing.  These tests pin the observable
behavior of those paths; ``repro.lint`` rule WP103 pins the implementation.
"""

import hashlib
import hmac
import inspect

import pytest

from repro.core import protocol
from repro.core.errors import VerificationFailed
from repro.crypto.primitives import constant_time_eq
from repro.indirection.i3 import I3Overlay, TriggerError
from repro.messages.envelope import seal
from repro.net.transport import Transport


class TestBrokerSyncNonce:
    def test_correct_nonce_is_accepted(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        alice.purchase()
        nonce = alice.request(net.shards[0].address, protocol.SYNC_CHALLENGE, None)
        signed = seal(alice.identity, {"kind": "whopay.sync", "nonce": nonce})
        assert alice.request(net.shards[0].address, protocol.SYNC, signed.encode()) == []

    def test_wrong_nonce_is_rejected(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        alice.purchase()
        real = alice.request(net.shards[0].address, protocol.SYNC_CHALLENGE, None)
        forged = real[:-1] + bytes([real[-1] ^ 1])
        signed = seal(alice.identity, {"kind": "whopay.sync", "nonce": forged})
        with pytest.raises(VerificationFailed):
            alice.request(net.shards[0].address, protocol.SYNC, signed.encode())

    def test_non_bytes_nonce_is_rejected_not_crashed(self, funded_trio):
        # compare_digest raises TypeError on non-bytes; the guard must turn
        # that into the same VerificationFailed as any other bad nonce.
        net, alice, _bob, _carol = funded_trio
        alice.purchase()
        alice.request(net.shards[0].address, protocol.SYNC_CHALLENGE, None)
        signed = seal(alice.identity, {"kind": "whopay.sync", "nonce": "not-bytes"})
        with pytest.raises(VerificationFailed):
            alice.request(net.shards[0].address, protocol.SYNC, signed.encode())

    def test_sync_path_uses_compare_digest(self):
        from repro.core import broker

        source = inspect.getsource(broker.Broker._handle_sync)
        assert "compare_digest" in source


class TestI3TokenChecks:
    @pytest.fixture()
    def overlay(self):
        transport = Transport()
        return transport, I3Overlay(transport, size=2)

    def test_wrong_token_cannot_reclaim_or_remove(self, overlay):
        _transport, i3 = overlay
        handle, token = I3Overlay.mint_handle(b"coin-secret")
        i3.insert_trigger(handle, token, "owner", src="owner")
        # A forged token whose hash shares no prefix with the stored one.
        wrong = hashlib.sha256(b"i3-token|guess").digest()
        with pytest.raises(TriggerError):
            i3.remove_trigger(handle, wrong, src="mallory")
        with pytest.raises(TriggerError):
            i3.insert_trigger(handle, wrong, "mallory", src="mallory")

    def test_right_token_removes(self, overlay):
        _transport, i3 = overlay
        handle, token = I3Overlay.mint_handle(b"coin-secret")
        i3.insert_trigger(handle, token, "owner", src="owner")
        i3.remove_trigger(handle, token, src="owner")
        assert all(handle not in server.triggers for server in i3.servers)

    def test_malformed_types_are_refused_not_crashed(self, overlay):
        _transport, i3 = overlay
        handle, _token = I3Overlay.mint_handle(b"coin-secret")
        with pytest.raises(TriggerError, match="malformed"):
            i3.insert_trigger(handle, "string-token", "owner", src="owner")
        i3.insert_trigger(handle, _token, "owner", src="owner")
        with pytest.raises(TriggerError, match="malformed"):
            i3.remove_trigger(handle, "string-token", src="owner")


class TestPrimitive:
    def test_constant_time_eq_matches_hmac(self):
        a = hashlib.sha256(b"a").digest()
        b = hashlib.sha256(b"b").digest()
        assert constant_time_eq(a, bytes(a)) is True
        assert constant_time_eq(a, b) is False
        assert constant_time_eq(a, a[:-1]) is False
        assert constant_time_eq(a, bytes(a)) == hmac.compare_digest(a, bytes(a))
