"""Stateful property testing: random protocol interleavings, global invariants.

A hypothesis rule-based machine drives a real WhoPayNetwork (actual crypto,
actual transport) through random sequences of purchases, issues, transfers,
downtime operations, renewals, deposits, and churn — checking after every
step that the system-wide invariants hold:

* value conservation: account balances + live circulating value is constant;
* no coin is in two wallets;
* every wallet entry's binding names that wallet's holder key;
* the broker's deposited set and the wallets are disjoint.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.errors import ProtocolError
from repro.core.network import PeerConfig, WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512
from repro.net.transport import NetworkError, NodeOffline

N_PEERS = 4
INITIAL_BALANCE = 6

peer_indexes = st.integers(min_value=0, max_value=N_PEERS - 1)


class WhoPayMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.net = WhoPayNetwork(params=PARAMS_TEST_512)
        self.peers = [
            self.net.add_peer(f"p{i}", PeerConfig(balance=INITIAL_BALANCE)) for i in range(N_PEERS)
        ]
        self.total_wealth = N_PEERS * INITIAL_BALANCE

    # -- actions ---------------------------------------------------------

    @rule(buyer=peer_indexes)
    def purchase(self, buyer):
        peer = self.peers[buyer]
        if self.net.broker.balance(peer.address) < 1:
            return
        peer.purchase(value=1)

    @rule(payer=peer_indexes, payee=peer_indexes)
    def issue(self, payer, payee):
        if payer == payee:
            return
        peer = self.peers[payer]
        if not peer.spendable_owned() or not self.peers[payee].online:
            return
        try:
            peer.issue(self.peers[payee].address)
        except (NodeOffline, ProtocolError):
            pass

    @rule(payer=peer_indexes, payee=peer_indexes)
    def transfer(self, payer, payee):
        if payer == payee:
            return
        peer = self.peers[payer]
        target = self.peers[payee]
        if not target.online:
            return
        for coin_y, held in list(peer.wallet.items()):
            owner = held.coin.owner_address
            if held.is_expired(self.net.clock.now()):
                continue
            try:
                if self.net.transport.is_online(owner):
                    peer.transfer(target.address, coin_y)
                else:
                    peer.transfer_via_broker(target.address, coin_y)
            except (NodeOffline, NetworkError, ProtocolError):
                pass
            return

    @rule(holder=peer_indexes)
    def renew(self, holder):
        peer = self.peers[holder]
        for coin_y, held in list(peer.wallet.items()):
            if held.is_expired(self.net.clock.now()):
                continue
            try:
                peer.renew(coin_y)
            except (NodeOffline, NetworkError, ProtocolError):
                pass
            return

    @rule(holder=peer_indexes)
    def deposit(self, holder):
        peer = self.peers[holder]
        for coin_y, held in list(peer.wallet.items()):
            if held.is_expired(self.net.clock.now()):
                continue
            try:
                peer.deposit(coin_y, payout_to=peer.address)
            except (NodeOffline, NetworkError, ProtocolError):
                pass
            return

    @rule(index=peer_indexes)
    def toggle_churn(self, index):
        peer = self.peers[index]
        if peer.online:
            peer.depart()
        else:
            peer.rejoin()

    @rule(hours=st.floats(min_value=0.1, max_value=6.0))
    def advance_time(self, hours):
        self.net.advance(hours * 3600)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def value_is_conserved(self):
        if not hasattr(self, "net"):
            return
        broker = self.net.shards[0]
        accounts = sum(a.balance for a in broker.accounts.values())
        circulating = sum(
            coin.value
            for coin_y, coin in broker.valid_coins.items()
            if coin_y not in broker.deposited
        )
        assert accounts + circulating == self.total_wealth

    @invariant()
    def no_coin_in_two_wallets(self):
        if not hasattr(self, "net"):
            return
        seen = set()
        for peer in self.peers:
            for coin_y in peer.wallet:
                assert coin_y not in seen, "coin held twice"
                seen.add(coin_y)

    @invariant()
    def bindings_name_their_holders(self):
        if not hasattr(self, "net"):
            return
        for peer in self.peers:
            for held in peer.wallet.values():
                assert held.binding.holder_y == held.holder_keypair.public.y

    @invariant()
    def deposited_coins_left_circulation(self):
        if not hasattr(self, "net"):
            return
        for peer in self.peers:
            for coin_y in peer.wallet:
                assert coin_y not in self.net.shards[0].deposited


WhoPayMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
TestWhoPayStateMachine = WhoPayMachine.TestCase
