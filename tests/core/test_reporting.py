"""Inspection/reporting API tests (wallet summaries, broker ledger)."""

import pytest


class TestWalletSummary:
    def test_held_coins_listed(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=3)
        alice.issue("bob", state.coin_y)
        rows = bob.wallet_summary()
        assert len(rows) == 1
        row = rows[0]
        assert row["coin"] == state.coin_y
        assert row["value"] == 3
        assert row["owner"] == "alice"
        assert row["owner_online"] is True
        assert row["expired"] is False
        assert row["expires_in"] == pytest.approx(net.renewal_period)

    def test_owner_offline_reflected(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        alice.depart()
        assert bob.wallet_summary()[0]["owner_online"] is False

    def test_no_secrets_in_summary(self, funded_trio):
        _net, alice, bob, _carol = funded_trio
        state = alice.purchase()
        alice.issue("bob", state.coin_y)
        held = bob.wallet[state.coin_y]
        blob = repr(bob.wallet_summary())
        assert str(held.holder_keypair.x) not in blob


class TestBrokerLedger:
    def test_conservation_audit(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        total = 35  # 25 + 10 + 0
        assert net.broker.verify_conservation(total)
        state = alice.purchase(value=4)
        assert net.broker.verify_conservation(total)
        alice.issue("bob", state.coin_y)
        bob.deposit(state.coin_y, payout_to="bob")
        assert net.broker.verify_conservation(total)

    def test_conservation_detects_tampering(self, funded_trio):
        net, alice, _bob, _carol = funded_trio
        net.shards[0].accounts["alice"].balance += 1  # counterfeit!
        assert not net.broker.verify_conservation(35)

    def test_export_ledger(self, funded_trio):
        net, alice, bob, _carol = funded_trio
        state = alice.purchase(value=2)
        alice.issue("bob", state.coin_y)
        ledger = net.broker.export_ledger()
        assert ledger["coins_minted"] == 1
        assert ledger["coins_deposited"] == 0
        assert ledger["circulating_value"] == 2
        assert ledger["accounts"]["alice"] == 23
        assert ledger["operation_counts"]["purchases"] == 1
        bob.deposit(state.coin_y)
        assert net.broker.export_ledger()["coins_deposited"] == 1
        assert net.broker.export_ledger()["circulating_value"] == 0
