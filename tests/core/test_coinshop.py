"""Coin-shop tests (Section 5.2, approach 2)."""

import pytest

from repro.core.coinshop import CoinShop, buy_coin_from_shop
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512


@pytest.fixture()
def rig():
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    member = net.judge.register("shop")
    shop = CoinShop(
        net.transport,
        address="shop",
        params=net.params,
        clock=net.clock,
        judge=net.judge,
        member_key=member,
        shard_map=net.shard_map,
        broker_key=net.broker.public_key,
        fee=1,
    )
    net.broker.open_account("shop", shop.identity.public, 1000)
    net.peers["shop"] = shop
    customer = net.add_peer("customer", PeerConfig(balance=5))
    merchant = net.add_peer("merchant")
    return net, shop, customer, merchant


class TestStocking:
    def test_restock(self, rig):
        _net, shop, _customer, _merchant = rig
        assert shop.restock(5) == 5
        assert shop.stock_size() == 5

    def test_sell_from_stock(self, rig):
        _net, shop, customer, _merchant = rig
        shop.restock(2)
        shop.sell("customer")
        assert shop.stock_size() == 1
        assert len(customer.wallet) == 1

    def test_sell_restocks_on_demand(self, rig):
        _net, shop, customer, _merchant = rig
        shop.sell("customer")  # empty shelf: buys one on the spot
        assert len(customer.wallet) == 1

    def test_revenue_accrues(self, rig):
        _net, shop, _customer, _merchant = rig
        shop.sell("customer")
        shop.sell("customer")
        assert shop.revenue == 2
        assert len(shop.sales) == 2


class TestAnonymitySHape:
    def test_customer_spends_only_by_transfer(self, rig):
        # The whole point: customers never own coins, so every spend is an
        # anonymous transfer with the (identity-exposing) issue confined to
        # the shop relationship.
        _net, shop, customer, merchant = rig
        coin_y = buy_coin_from_shop(customer, shop)
        assert customer.spendable_owned() == []  # owns nothing
        customer.transfer("merchant", coin_y)
        assert coin_y in merchant.wallet
        assert customer.counts.issues == 0
        assert customer.counts.transfers_sent == 1

    def test_shop_serves_transfers_of_sold_coins(self, rig):
        _net, shop, customer, merchant = rig
        coin_y = buy_coin_from_shop(customer, shop)
        customer.transfer("merchant", coin_y)
        merchant.transfer("customer", coin_y)
        assert shop.counts.transfers_handled == 2

    def test_value_selection(self, rig):
        _net, shop, customer, _merchant = rig
        shop.restock(1, value=1)
        shop.restock(1, value=5)
        shop.sell("customer", value=5)
        held = next(iter(customer.wallet.values()))
        assert held.value == 5
        assert shop.stock_size() == 1  # the value-1 coin remains
