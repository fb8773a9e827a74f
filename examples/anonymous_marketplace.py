"""Issuer anonymity, both ways (paper Section 5.2).

The basic protocol leaks the payer's identity during *issue* (the coin names
its owner).  The paper offers three answers; this example runs the two
substantive ones side by side:

* **coin shops** (approach 2): a commercial issuer sells coins; customers
  never own coins, so every customer payment is an anonymous transfer;
* **ownerless coins** (approach 3): coins are ``{h_CU, pk_CU}_skB`` with an
  i3 handle instead of an owner identity; even the *issuer* stays anonymous,
  protected only as far as the judge's opening power.

Run:  python examples/anonymous_marketplace.py
"""

from repro import PARAMS_TEST_512, PeerConfig, WhoPayNetwork
from repro.core.anonymous_owner import AnonymousOwnerPeer
from repro.core.coinshop import CoinShop, buy_coin_from_shop
from repro.indirection.i3 import I3Overlay


def coin_shop_market(net: WhoPayNetwork) -> None:
    print("== approach 2: coin shops ==")
    member = net.judge.register("coin-shop")
    shop = CoinShop(
        net.transport, address="coin-shop", params=net.params, clock=net.clock,
        judge=net.judge, member_key=member, shard_map=net.shard_map,
        broker_key=net.broker.public_key, fee=1,
    )
    net.broker.open_account("coin-shop", shop.identity.public, 100)
    net.peers["coin-shop"] = shop
    shop.restock(4)

    buyer = net.add_peer("buyer", PeerConfig(balance=10))
    bookstore = net.add_peer("bookstore")

    coin_y = buy_coin_from_shop(buyer, shop)
    print(f"buyer bought a coin from the shop (shop revenue so far: {shop.revenue})")
    print(f"buyer owns {len(buyer.spendable_owned())} coins -> can never be forced to issue")
    buyer.transfer("bookstore", coin_y)
    print("buyer paid the bookstore by anonymous transfer; the shop served it")
    print(f"shop handled {shop.counts.transfers_handled} transfer(s) of coins it issued\n")


def ownerless_market(net: WhoPayNetwork, i3: I3Overlay) -> None:
    print("== approach 3: ownerless coins over i3 ==")

    def add_anon(address, balance=0):
        member = net.judge.register(address)
        peer = AnonymousOwnerPeer(
            net.transport, address=address, params=net.params, clock=net.clock,
            judge=net.judge, member_key=member, shard_map=net.shard_map,
            broker_key=net.broker.public_key, i3=i3,
        )
        net.broker.open_account(address, peer.identity.public, balance)
        net.peers[address] = peer
        return peer

    patron = add_anon("patron", balance=10)
    journalist = add_anon("journalist")
    archive = add_anon("archive")

    state = patron.purchase_anonymous(value=3)
    coin = state.coin
    print(f"patron minted an ownerless coin: owner field = {coin.owner_address!r}, "
          f"handle = {coin.handle.hex()[:16]}…")
    patron.issue("journalist", state.coin_y)
    print("patron issued it to the journalist — the coin carries NO owner identity;")
    print("the issue messages were group-signed, so only the judge could unmask a cheat")

    journalist.transfer("archive", state.coin_y)
    print("journalist transferred it onward; the transfer request traveled through an")
    print("i3 trigger, so even the owner's network address stayed hidden")
    credited = archive.deposit(state.coin_y)
    print(f"archive deposited it for {credited} into a bearer account")

    print(f"\njudge openings performed across both markets: {net.judge.openings_performed} "
          "(anonymity held; escrow untouched)")


def main() -> None:
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    i3 = I3Overlay(net.transport, size=3)
    coin_shop_market(net)
    ownerless_market(net, i3)


if __name__ == "__main__":
    main()
