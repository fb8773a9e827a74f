"""Owner-anonymous coin tests (Section 5.2, approach 3)."""

import pytest

from repro.core import protocol
from repro.core.anonymous_owner import AnonymousOwnerPeer
from repro.core.coin import Coin
from repro.core.errors import VerificationFailed
from repro.core.network import WhoPayNetwork
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from repro.indirection.i3 import I3Overlay
from repro.store.journal import DurableStore


def add_anonymous_peer(net, i3, address, balance=0, **kwargs):
    member = net.judge.register(address)
    peer = AnonymousOwnerPeer(
        net.transport,
        address=address,
        params=net.params,
        clock=net.clock,
        judge=net.judge,
        member_key=member,
        broker_address=net.broker.address,
        broker_key=net.broker.public_key,
        i3=i3,
        **kwargs,
    )
    net.broker.open_account(address, peer.identity.public, balance)
    net.peers[address] = peer
    return peer


@pytest.fixture()
def rig():
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    i3 = I3Overlay(net.transport, size=3)
    alice = add_anonymous_peer(net, i3, "alice", balance=20)
    bob = add_anonymous_peer(net, i3, "bob", balance=5)
    carol = add_anonymous_peer(net, i3, "carol")
    return net, i3, alice, bob, carol


class TestAnonymousPurchase:
    def test_coin_is_ownerless(self, rig):
        net, _i3, alice, _bob, _carol = rig
        state = alice.purchase_anonymous(value=2)
        assert state.coin.is_ownerless
        assert state.coin.owner_address is None
        assert state.coin.owner_y is None
        assert state.coin.handle is not None

    def test_broker_cannot_map_coin_to_owner(self, rig):
        net, _i3, alice, _bob, _carol = rig
        state = alice.purchase_anonymous()
        assert state.coin_y not in net.broker.owner_coins.get("alice", set())

    def test_broker_still_debits_buyer(self, rig):
        net, _i3, alice, _bob, _carol = rig
        alice.purchase_anonymous(value=3)
        assert net.broker.balance("alice") == 17

    def test_forces_lazy_sync(self, rig):
        _net, _i3, alice, _bob, _carol = rig
        assert alice.sync_mode == "lazy"


class TestPurchaseReplyIsChecked:
    """The coin in the reply must be the one asked for: the broker's
    certificate, *this* coin key, exactly the requested handle (none for a
    basic coin).  Both purchase methods take the one checked path."""

    @pytest.fixture()
    def dana(self, rig, tmp_path):
        net, i3, *_peers = rig
        return add_anonymous_peer(
            net, i3, "dana", balance=5, store=DurableStore(tmp_path / "dana")
        )

    def _reply_with(self, net, peer, monkeypatch, build):
        """Answer ``peer``'s purchases with a broker-signed coin of ``build``'s making."""

        def purchase(signed_request, *, account):
            signed = protocol.decode_signed(signed_request, net.params)
            request = protocol.PurchaseRequest.from_payload(signed.payload)
            return build(net.broker.keypair, request).encode()

        monkeypatch.setattr(peer.broker_client, "purchase", purchase)

    def _assert_refused(self, peer, purchase):
        lsn = peer.store.next_lsn
        with pytest.raises(VerificationFailed):
            purchase()
        assert peer.owned == {}
        assert peer.store.next_lsn == lsn
        assert peer.counts.purchases == 0

    def test_ownerless_coin_for_another_coin_key_is_refused(self, rig, dana, monkeypatch):
        # A valid certificate, the requested handle, somebody else's coin key:
        # filed, it would sit under a key dana cannot sign for.
        net = rig[0]
        other = KeyPair.generate(net.params).public.y
        self._reply_with(
            net, dana, monkeypatch,
            lambda broker, request: Coin.build(
                broker, other, request.value, None, None, handle=request.handle
            ),
        )
        self._assert_refused(dana, dana.purchase_anonymous)
        assert dana._handle_tokens == {}

    def test_ownerless_coin_for_a_basic_purchase_is_refused(self, rig, dana, monkeypatch):
        net = rig[0]
        self._reply_with(
            net, dana, monkeypatch,
            lambda broker, request: Coin.build(
                broker, request.coin_y, request.value, None, None, handle=b"h" * 32
            ),
        )
        self._assert_refused(dana, dana.purchase)


class TestAnonymousPayments:
    def test_issue_hides_owner_identity(self, rig):
        _net, _i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        # Nothing in the coin or binding names alice.
        assert held.coin.owner_address is None
        assert held.coin.owner_y is None

    def test_transfer_routes_through_handle(self, rig):
        net, _i3, alice, bob, carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        before = net.transport.counter("bob").messages_sent
        bob.transfer("carol", state.coin_y)
        assert state.coin_y in carol.wallet
        # Bob never addressed alice directly: his outbound requests went to
        # carol (offer) and an i3 server (transfer request).
        assert alice.counts.transfers_handled == 1

    def test_renewal_via_handle(self, rig):
        _net, _i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous()
        b1 = alice.issue("bob", state.coin_y)
        b2 = bob.renew(state.coin_y)
        assert not b2.via_broker
        assert b2.seq == b1.seq + 1

    def test_downtime_fallback(self, rig):
        _net, _i3, alice, bob, carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        alice.depart()
        b = bob.transfer_via_broker("carol", state.coin_y)
        assert b.via_broker
        assert state.coin_y in carol.wallet

    def test_downtime_renewal_fallback(self, rig):
        _net, _i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        alice.depart()
        b = bob.renew(state.coin_y)
        assert b.via_broker

    def test_lazy_check_after_downtime(self, rig):
        _net, _i3, alice, bob, carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        alice.depart()
        bob.transfer_via_broker("carol", state.coin_y)
        alice.rejoin()
        carol.transfer("bob", state.coin_y)
        assert alice.counts.checks >= 1
        assert alice.counts.lazy_syncs >= 1

    def test_deposit(self, rig):
        net, _i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous(value=2)
        alice.issue("bob", state.coin_y)
        assert bob.deposit(state.coin_y) == 2

    def test_renewal_via_handle_refuses_a_previous_holders_binding(self, rig, tmp_path):
        # The owner answers a renewal with the binding it signed for the
        # *previous* holder: a valid coin-key signature, one seq too low,
        # naming a key the renewing holder has no secret for.
        from repro.core import protocol
        from repro.store.journal import DurableStore

        net, i3, alice, bob, _carol = rig
        dana = add_anonymous_peer(net, i3, "dana", store=DurableStore(tmp_path / "dana"))
        state = alice.purchase_anonymous()
        stale = alice.issue("bob", state.coin_y)
        bob.transfer("dana", state.coin_y)
        alice._handlers[protocol.RENEW_REQUEST] = lambda src, data: stale.encode()
        held = dana.wallet[state.coin_y].binding
        journaled = dana.store.next_lsn
        with pytest.raises(VerificationFailed):
            dana.renew(state.coin_y)
        assert dana.wallet[state.coin_y].binding is held
        assert held.seq == stale.seq + 1
        assert dana.store.next_lsn == journaled


class TestOwnerlessIssueAcrossRosterChanges:
    def test_issue_after_an_expulsion_names_the_snapshot_it_signed_against(self, rig):
        # Three registrations (v3), one expulsion (v4): the roster now has TWO
        # members.  An issuer that stamped the roster's length sent the payee
        # to snapshot v2 — another roster, and below the revocation floor.
        net, _i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous()
        assert net.judge.expel("carol") == 4
        assert len(net.judge.group_public_key().roster) == 2
        alice.issue("bob", state.coin_y)
        assert state.coin_y in bob.wallet

    def test_a_completion_naming_an_unissued_snapshot_is_refused_not_a_crash(self, rig):
        import dataclasses

        from repro.core import protocol
        from repro.core.errors import ProtocolError

        net, _i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous()
        real = alice._completion_payload

        def misnumbered(*args):
            payload = real(*args)
            dual = protocol.decode_dual(payload["binding_dual"], net.params)
            payload["binding_dual"] = protocol.encode_dual(dataclasses.replace(dual, roster_version=99))
            return payload

        alice._completion_payload = misnumbered
        with pytest.raises(ProtocolError, match="issuer group signature invalid"):
            alice.issue("bob", state.coin_y)
        assert state.coin_y not in bob.wallet


class TestFairnessOfAnonymousIssuers:
    def test_judge_can_open_issue_group_signature(self, rig):
        # The issuer group-signs the binding; capture it on the payee side
        # via the wire and let the judge open it.
        net, _i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous()

        captured = {}
        original = bob._handle_payment_complete

        def spy(src, payload):
            captured.update(payload)
            return original(src, payload)

        bob._handlers["whopay.issue_complete"] = spy
        alice.issue("bob", state.coin_y)
        assert captured.get("binding_dual") is not None
        from repro.core import protocol

        dual = protocol.decode_dual(captured["binding_dual"], net.params)
        assert net.judge.open(dual.group_signature) == "alice"

    def test_mixed_coins_interoperate(self, rig):
        _net, _i3, alice, bob, _carol = rig
        anon = alice.purchase_anonymous()
        named = alice.purchase()
        alice.issue("bob", anon.coin_y)
        alice.issue("bob", named.coin_y)
        assert len(bob.wallet) == 2

    def test_release_handle(self, rig):
        _net, i3, alice, bob, _carol = rig
        state = alice.purchase_anonymous()
        alice.issue("bob", state.coin_y)
        bob.deposit(state.coin_y)
        alice.release_handle(state.coin_y)
        from repro.net.transport import NetworkError

        with pytest.raises(NetworkError):
            i3.send("bob", state.coin.handle, "whopay.renew_request", b"")
