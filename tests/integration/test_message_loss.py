"""Message-loss injection: lost exchanges must leave no partial state."""

import pytest

from repro.core.errors import ProtocolError
from repro.net.transport import FaultPlan, MessageDropped, NetworkError


class TestLossMechanics:
    def test_loss_rate_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(request_loss=1.1)
        with pytest.raises(ValueError):
            FaultPlan(request_loss=-0.1)

    def test_full_reliability_by_default(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        assert net.transport.messages_dropped == 0

    def test_deterministic_drops(self):
        from repro.net.node import Node
        from repro.net.transport import Transport

        outcomes = []
        for _ in range(2):
            transport = Transport()
            a = Node(transport, "a")
            b = Node(transport, "b")
            b.on("ping", lambda src, p: p)
            transport.install_faults(FaultPlan(42, request_loss=0.5))
            run = []
            for i in range(20):
                try:
                    a.request("b", "ping", i)
                    run.append(True)
                except MessageDropped:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert False in outcomes[0] and True in outcomes[0]


class TestProtocolUnderLoss:
    def test_lost_purchase_leaves_no_state(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        net.transport.install_faults(FaultPlan(7, request_loss=0.999))  # drop (almost) everything
        with pytest.raises((MessageDropped, NetworkError)):
            alice.purchase()
        net.transport.install_faults(None)
        assert net.broker.balance("alice") == 25  # nothing debited
        assert not alice.owned
        assert not net.shards[0].valid_coins

    def test_lost_transfer_keeps_holder_state(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        net.transport.install_faults(FaultPlan(9, request_loss=0.999))
        with pytest.raises((MessageDropped, NetworkError, ProtocolError)):
            bob.transfer("carol", state.coin_y)
        net.transport.install_faults(None)
        # Bob still holds; the retry succeeds cleanly.
        assert state.coin_y in bob.wallet
        bob.transfer("carol", state.coin_y)
        assert state.coin_y in carol.wallet

    def test_retries_eventually_succeed_under_moderate_loss(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        states = [alice.purchase() for _ in range(8)]
        net.transport.install_faults(FaultPlan(11, request_loss=0.4))
        delivered = 0
        for state in states:
            for _ in range(40):
                try:
                    alice.issue("bob", state.coin_y)
                    delivered += 1
                    break
                except (MessageDropped, NetworkError, ProtocolError):
                    continue
        net.transport.install_faults(None)
        assert delivered == len(states)  # retries always get through
        assert len(bob.wallet) == len(states)
        assert net.transport.messages_dropped > 0  # and loss really occurred

    def test_owner_rollback_when_completion_lost(self, funded_trio):
        # The transfer handler's completion to the payee is dropped: the
        # owner must roll the binding back so the payer can retry.
        net, alice, bob, carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        # Drop only the completion leg: sabotage via a carol-side exception
        # is already tested; here we use probabilistic loss until we observe
        # a failed attempt followed by a successful retry.
        failures = successes = 0
        net.transport.install_faults(FaultPlan(13, request_loss=0.3))
        holder, payee = bob, carol
        for _ in range(40):
            coin_y = state.coin_y
            try:
                holder.transfer(payee.address, coin_y)
                successes += 1
                holder, payee = payee, holder
            except (MessageDropped, NetworkError, ProtocolError):
                failures += 1
        net.transport.install_faults(None)
        assert successes > 0 and failures > 0
        # Wherever the coin ended up, exactly one wallet holds it and the
        # owner's binding matches that holder.
        holders = [p for p in (bob, carol) if state.coin_y in p.wallet]
        assert len(holders) == 1
        owner_binding = alice.owned[state.coin_y].binding
        assert owner_binding.holder_y == holders[0].wallet[state.coin_y].binding.holder_y
