"""Multi-coin payment (change-making) tests."""

import pytest

from repro.core.errors import ProtocolError


class TestPayAmount:
    def test_single_coin_exact(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase(value=5)
        alice.issue("bob", state.coin_y)
        legs = bob.pay_amount("carol", 5)
        assert legs == [("transfer", 5)]
        assert carol.balance_held() == 5

    def test_multiple_coins_combined(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        for value in (3, 2, 1):
            state = alice.purchase(value=value)
            alice.issue("bob", state.coin_y)
        legs = bob.pay_amount("carol", 6)
        assert sum(v for _m, v in legs) == 6
        assert carol.balance_held() == 6
        assert bob.balance_held() == 0

    def test_largest_first_no_overshoot(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        for value in (5, 3, 1):
            state = alice.purchase(value=value)
            alice.issue("bob", state.coin_y)
        bob.pay_amount("carol", 4)
        # 5 would overshoot; the 3 and the 1 were chosen.
        assert carol.balance_held() == 4
        assert bob.balance_held() == 5

    def test_topup_with_purchases(self, funded_trio):
        net, alice, bob, carol = funded_trio
        state = alice.purchase(value=2)
        alice.issue("bob", state.coin_y)
        legs = bob.pay_amount("carol", 4)
        assert sum(v for _m, v in legs) == 4
        assert carol.balance_held() == 4
        # The remainder came from bob's purchase+issue of unit coins.
        methods = [m for m, _v in legs]
        assert methods.count("purchase_issue") == 2
        assert net.broker.balance("bob") == 8

    def test_offline_owner_uses_broker_leg(self, funded_trio):
        _net, alice, bob, carol = funded_trio
        state = alice.purchase(value=3)
        alice.issue("bob", state.coin_y)
        alice.depart()
        legs = bob.pay_amount("carol", 3)
        assert legs == [("downtime_transfer", 3)]

    def test_a_failed_coin_is_skipped_not_the_whole_wallet(self, funded_trio, monkeypatch):
        _net, alice, bob, carol = funded_trio
        coins = {}
        for value in (2, 1, 1):
            state = alice.purchase(value=value)
            alice.issue("bob", state.coin_y)
            coins[state.coin_y] = value
        broken = next(y for y, value in coins.items() if value == 2)
        transfer = bob.transfer

        def failing_transfer(payee, coin_y):
            if coin_y == broken:
                raise ProtocolError("owner refused this coin")
            return transfer(payee, coin_y)

        monkeypatch.setattr(bob, "transfer", failing_transfer)
        legs = bob.pay_amount("carol", 4)
        assert legs == [
            ("transfer", 1),
            ("transfer", 1),
            ("purchase_issue", 1),
            ("purchase_issue", 1),
        ]
        assert list(bob.wallet) == [broken]
        assert carol.balance_held() == 4

    def test_rejects_nonpositive(self, funded_trio):
        _net, alice, _bob, _carol = funded_trio
        with pytest.raises(ValueError):
            alice.pay_amount("bob", 0)

    def test_value_arrives_intact(self, funded_trio):
        net, alice, bob, carol = funded_trio
        for value in (4, 2):
            state = alice.purchase(value=value)
            alice.issue("bob", state.coin_y)
        bob.pay_amount("carol", 7)
        credited = sum(carol.deposit(c, payout_to="carol") for c in list(carol.wallet))
        assert credited == 7
        assert net.broker.balance("carol") == 7
