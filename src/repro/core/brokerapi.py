"""The broker surface: a router over the shards, for every M.

PR 7 splits the mint across ``M`` shards (consistent hashing over coin and
account keys, :mod:`repro.core.sharding`).  Everything that *consumes* a
broker (tests, benchmarks, the simulation, operator tooling) talks to one
:class:`ShardRouter`, which aggregates ledgers, counters, and conservation
checks across shards.  A lone broker is a federation of one: the same
router over a one-shard ring.

Note what the router is *not*: a network hop.  Peers route their RPCs
directly to the owning shard (``BrokerClient`` carries the shard map); the
router is the control-plane facade for account provisioning and auditing.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any

from repro.core.broker import Broker, OperationCounts
from repro.core.sharding import ShardMap
from repro.crypto.keys import PublicKey


class ShardRouter:
    """A federation of broker shards behind one surface.

    Account operations route to the account's home shard (the same ring
    peers use, so the balance an operator reads is the balance the debit
    hit); read-side aggregates (circulation, ledgers, conservation) fan out
    and merge.

    ``shards`` is held, not copied: the owner of the list (the network)
    replaces a restarted shard in it, and the router sees the new one.  It
    lists the shards in the order of ``shard_map.addresses``.

    Conservation across a federation needs one extra term: value currently
    *in flight* between shards.  Each shard conserves locally against its
    own ``total_opened`` baseline (see :mod:`repro.store.apply`); the
    router's :meth:`verify_conservation` therefore only holds once no
    handoffs are pending — call :meth:`complete_pending_handoffs` first
    when a storm may have orphaned some.
    """

    def __init__(self, shards: list[Broker], shard_map: ShardMap) -> None:
        if [shard.address for shard in shards] != list(shard_map.addresses):
            raise ValueError("shard map and shard list disagree on addresses")
        self.shards = shards
        self.shard_map = shard_map

    # -- routing -----------------------------------------------------------------

    def _shard(self, address: str) -> Broker:
        return self.shards[self.shard_map.addresses.index(address)]

    def shard_for_account(self, name: str) -> Broker:
        """The shard that owns account ``name``."""
        return self._shard(self.shard_map.shard_for_account(name))

    def shard_for_coin(self, coin_y: int) -> Broker:
        """The shard that owns coin key ``coin_y``."""
        return self._shard(self.shard_map.shard_for_coin(coin_y))

    # -- the surface ---------------------------------------------------------------

    @property
    def public_key(self) -> PublicKey:
        """The federation's shared signing key ``pk_B``."""
        return self.shards[0].public_key

    def open_account(self, name: str, identity: PublicKey, balance: int) -> None:
        """Open the account on its home shard (value enters the system here)."""
        self.shard_for_account(name).open_account(name, identity, balance)

    def open_account_from_certificate(self, certificate: Any, ca_key: PublicKey, balance: int) -> None:
        """Open a certificate-backed account on its home shard."""
        self.shard_for_account(certificate.subject).open_account_from_certificate(
            certificate, ca_key, balance
        )

    def balance(self, name: str) -> int:
        """Balance as recorded by the account's home shard (0 if unknown)."""
        return self.shard_for_account(name).balance(name)

    def circulating_value(self) -> int:
        """Circulating coin value summed over every shard."""
        return sum(shard.circulating_value() for shard in self.shards)

    @property
    def total_opened(self) -> int:
        """Sum of the per-shard conservation baselines.

        With no handoffs in flight this equals the externally opened value;
        mid-handoff it may transiently differ by the in-flight amount.
        """
        return sum(shard.total_opened for shard in self.shards)

    def verify_conservation(self, expected_total: int) -> bool:
        """Accounts + circulating value must equal the total opened value.

        Value enters the system only through :meth:`open_account`; every
        protocol operation merely moves it between accounts and coins.  A
        False return means a minting/accounting bug, or a handoff still in
        flight (each one carries value between two shards' baselines):
        complete them first.
        """
        if any(shard.pending_handoffs for shard in self.shards):
            return False
        balances = sum(
            account.balance
            for shard in self.shards
            for account in shard.accounts.values()
        )
        return balances + self.circulating_value() == expected_total

    @property
    def counts(self) -> OperationCounts:
        """Merged operation counters (client ops + cross-shard prepares)."""
        merged = OperationCounts()
        for shard in self.shards:
            merged.merge(shard.counts)
        return merged

    @property
    def fraud_events(self) -> list:
        """Double-spend evidence collected anywhere in the federation."""
        events = []
        for shard in self.shards:
            events.extend(shard.fraud_events)
        return events

    def export_ledger(self) -> dict[str, Any]:
        """Merged audit export (no secrets) plus the per-shard breakdown.

        ``operation_counts`` is process telemetry, not journaled state: it
        appears once, merged, so dropping that one key leaves what a
        restart recovers.
        """
        accounts: dict[str, int] = {}
        for shard in self.shards:
            for name, account in shard.accounts.items():
                accounts[name] = account.balance
        return {
            "accounts": accounts,
            "coins_minted": sum(len(shard.valid_coins) for shard in self.shards),
            "coins_deposited": sum(len(shard.deposited) for shard in self.shards),
            "circulating_value": self.circulating_value(),
            "downtime_bindings": sum(len(shard.downtime_bindings) for shard in self.shards),
            "fraud_events": len(self.fraud_events),
            "operation_counts": asdict(self.counts),
            "pending_handoffs": sum(len(shard.pending_handoffs) for shard in self.shards),
            "shards": {shard.address: shard.export_ledger() for shard in self.shards},
        }

    def complete_pending_handoffs(self) -> int:
        """Re-drive orphaned handoffs on every shard; returns the total."""
        return sum(shard.complete_pending_handoffs() for shard in self.shards)
