"""Property test over the value-move table (``repro.store.apply.EFFECTS``).

For every operation's effect list and *every* split of it across two
shards — including the ones no handler produces, such as a deposit whose
retire is the remote half — ``Broker._move_value`` must keep each shard
locally conserving (``accounts + circulating == total_opened``) at every
boundary a crash could expose: after the begin, after each prepare, after
the commit and after an abort.  Replaying each shard's journal through
``apply_broker`` must then reproduce its live state exactly.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import protocol
from repro.core.broker import Broker
from repro.core.errors import ProtocolError
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.keys import KeyPair
from repro.crypto.params import PARAMS_TEST_512
from repro.net.transport import Transport
from repro.store.apply import effect
from repro.store.audit import audit_broker
from repro.store.journal import DurableStore
from repro.store.recovery import RecoveryManager
from tests.conftest import mint_coin

KIND = "test.move"


class SplitMap:
    """A two-shard ring that homes each key wherever the example says."""

    addresses = ("A", "B")

    def __init__(self, homes: dict) -> None:
        self.homes = homes

    def shard_for_account(self, name: str) -> str:
        return self.homes[name]

    def shard_for_coin(self, coin_y: int) -> str:
        return self.homes[coin_y]


@pytest.fixture(scope="module")
def world():
    """A real coin held by a real peer, so ``retire`` can carry a genuine
    dual-signed deposit envelope; its signing key is the federation key."""
    net = WhoPayNetwork(params=PARAMS_TEST_512)
    alice = net.add_peer("alice", PeerConfig(balance=5))
    bob = net.add_peer("bob")
    state = alice.purchase(value=2)
    alice.issue("bob", state.coin_y)
    held = bob.wallet[state.coin_y]
    envelope = protocol.encode_dual(bob._holder_envelope(held, "deposit", payout_to="payout"))
    return net, held.coin, envelope


def ledger(shard: Broker) -> dict:
    return {
        "accounts": {name: account.balance for name, account in shard.accounts.items()},
        "coins": {coin_y: coin.encode() for coin_y, coin in shard.valid_coins.items()},
        "deposited": dict(shard.deposited),
        "total_opened": shard.total_opened,
        "pending": dict(shard.pending_handoffs),
        "seen": set(shard.handoffs_seen),
    }


def conserves(shard: Broker) -> bool:
    balances = sum(account.balance for account in shard.accounts.values())
    return balances + shard.circulating_value() == shard.total_opened and audit_broker(shard).ok


def home_key(an_effect: dict):
    return an_effect.get("account", an_effect.get("coin_y"))


def seed(shard: Broker, precondition: dict) -> None:
    """Put a precondition on ``shard`` as a conserving half (like a prepare)."""
    shard._commit_local({"type": "xshard_apply", "h": f"seed-{len(shard.handoffs_seen)}",
                         "effects": [precondition]})


def build_operation(op: str, amounts: list[int], world, keypair, identity):
    """(effects, preconditions) of one operation; a precondition is the
    effect that must already have been applied on the target's home."""
    _net, held_coin, envelope = world
    funding = effect("credit", 9, account="payer", identity_y=identity.y)

    def debit(amount):
        return effect("debit", amount, account="payer", identity_y=identity.y)

    def mint(coin):
        return effect("mint", coin.value, coin_y=coin.coin_y, coin=coin.encode())

    def fresh(value):
        return mint_coin(keypair, coin_y=KeyPair.generate(PARAMS_TEST_512).public.y, value=value,
                         owner="payer", owner_y=identity.y)

    if op == "purchase":
        coins = [fresh(value) for value in amounts]
        return [debit(sum(amounts)), *map(mint, coins)], [funding]
    if op == "deposit":
        retire = effect("retire", held_coin.value, coin_y=held_coin.coin_y, envelope=envelope)
        credit = effect("credit", held_coin.value, account="payout", identity_y=identity.y)
        return [retire, credit], [mint(held_coin)]
    old = fresh(amounts[0])
    new = mint_coin(keypair, coin_y=old.coin_y, value=old.value + 1,
                    owner="payer", owner_y=identity.y)
    remint = effect("remint", 1, coin_y=old.coin_y, coin=new.encode())
    return [debit(1), remint], [funding, mint(old)]


@settings(max_examples=40, deadline=None)
@given(
    op=st.sampled_from(["purchase", "deposit", "top_up"]),
    amounts=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    split=st.lists(st.booleans(), min_size=4, max_size=4),
    sabotage=st.booleans(),
)
def test_every_split_conserves_per_shard_and_replays(world, op, amounts, split, sabotage):
    net, _coin, _envelope = world
    keypair, identity = net.shards[0].keypair, KeyPair.generate(PARAMS_TEST_512).public
    effects, preconditions = build_operation(op, amounts, world, keypair, identity)
    keys = [home_key(e) for e in effects]
    homes = {key: "A" if local else "B" for key, local in zip(keys, split)}
    if sabotage:
        # Withhold the first effect's precondition: its home must refuse.
        doomed = keys[0]
        preconditions = [p for p in preconditions if home_key(p) != doomed]

    with tempfile.TemporaryDirectory() as tmp:
        transport = Transport()
        shards = {
            address: Broker(transport, judge=net.judge, params=net.params, clock=net.clock,
                            address=address, store=DurableStore(Path(tmp) / address),
                            keypair=keypair)
            for address in ("A", "B")
        }
        for shard in shards.values():
            shard.attach_federation(SplitMap(homes))
        for precondition in preconditions:
            seed(shards[homes[home_key(precondition)]], precondition)
        before = {address: ledger(shard) for address, shard in shards.items()}

        source = shards["A"]
        boundaries = []
        send = source._prepare

        def watched_prepare(dest, payload):
            boundaries.append(all(map(conserves, shards.values())))  # after begin / last prepare
            try:
                send(dest, payload)
            finally:
                boundaries.append(all(map(conserves, shards.values())))

        source._prepare = watched_prepare
        source.on(KIND, lambda src, data: source._move_value(KIND, data, effects, "done"))
        try:
            refused = source.handle(KIND, "client", b"request") != "done"
        except ProtocolError:
            refused = True

        assert refused == sabotage
        assert all(boundaries), "a shard stopped conserving mid-handoff"
        assert all(map(conserves, shards.values()))
        assert not any(shard.pending_handoffs for shard in shards.values())
        if refused:
            # Abort (or refusal before the begin) leaves both shards as found.
            for address, shard in shards.items():
                assert ledger(shard) == before[address]
        else:
            total = sum(s.total_opened for s in shards.values())
            assert total == sum(b["total_opened"] for b in before.values())

        for address, shard in shards.items():
            recovered = RecoveryManager(shard.store).recover_broker(
                Transport(), judge=net.judge, params=net.params, clock=net.clock
            ).entity
            assert ledger(recovered) == ledger(shard), f"replay diverged on {address}"
