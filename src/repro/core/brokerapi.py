"""The unified broker surface: one protocol, two implementations.

PR 7 splits the mint across ``M`` shards (consistent hashing over coin and
account keys, :mod:`repro.core.sharding`) — but everything that *consumes*
a broker (tests, benchmarks, the simulation, operator tooling) should not
care whether it talks to one :class:`~repro.core.broker.Broker` or a
federation.  :class:`BrokerAPI` is that contract; :class:`ShardRouter` is
the federation-side implementation, aggregating ledgers, counters, and
conservation checks across shards.

Note what the router is *not*: a network hop.  Peers route their RPCs
directly to the owning shard (``BrokerClient`` carries the shard map); the
router is the control-plane facade for account provisioning and auditing.
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol, runtime_checkable

from repro.core.broker import Broker, OperationCounts
from repro.core.sharding import ShardMap
from repro.crypto.keys import PublicKey


@runtime_checkable
class BrokerAPI(Protocol):
    """What every broker implementation — standalone or federated — exposes.

    :class:`~repro.core.broker.Broker` satisfies this structurally; the
    :class:`ShardRouter` implements it by aggregation.  Keep this surface
    small: it is the operator/audit contract, not the wire protocol (which
    lives in :mod:`repro.core.protocol`).
    """

    @property
    def public_key(self) -> PublicKey:
        """The system-wide coin-signing key ``pk_B``."""
        ...

    def open_account(self, name: str, identity: PublicKey, balance: int) -> None:
        """Open a cash account (value enters the system here)."""
        ...

    def open_account_from_certificate(self, certificate: Any, ca_key: PublicKey, balance: int) -> None:
        """Open an account from a CA-issued identity certificate."""
        ...

    def balance(self, name: str) -> int:
        """Current balance of ``name`` (0 for unknown accounts)."""
        ...

    def circulating_value(self) -> int:
        """Total value of coins minted and not yet deposited."""
        ...

    def verify_conservation(self, expected_total: int) -> bool:
        """Accounts + circulating value must equal total opened value."""
        ...

    def export_ledger(self) -> dict[str, Any]:
        """Audit export: counts, balances, circulation (no secrets)."""
        ...

    def complete_pending_handoffs(self) -> int:
        """Re-drive any cross-shard handoffs orphaned by a crash."""
        ...

    def health(self) -> dict[str, Any]:
        """Liveness/health surface: online flags and in-flight work.

        This is what a supervisor or operator dashboard polls — it must
        stay cheap (no signature checks, no fan-out RPCs) and must not
        leak secrets.
        """
        ...


class ShardRouter:
    """A federation of broker shards behind the :class:`BrokerAPI` surface.

    Account operations route to the account's home shard (the same ring
    peers use, so the balance an operator reads is the balance the debit
    hit); read-side aggregates (circulation, ledgers, conservation) fan out
    and merge.

    Conservation across a federation needs one extra term: value currently
    *in flight* between shards.  Each shard conserves locally against its
    own ``total_opened`` baseline (see :mod:`repro.store.apply`); the
    router's :meth:`verify_conservation` therefore only holds once no
    handoffs are pending — call :meth:`complete_pending_handoffs` first
    when a storm may have orphaned some.
    """

    def __init__(self, shards: Iterable[Broker], shard_map: ShardMap) -> None:
        self.shards: list[Broker] = list(shards)
        if not self.shards:
            raise ValueError("a federation needs at least one shard")
        self.shard_map = shard_map
        self._by_address = {shard.address: shard for shard in self.shards}
        if set(self._by_address) != set(shard_map.addresses):
            raise ValueError("shard map and shard list disagree on addresses")

    # -- routing -----------------------------------------------------------------

    def shard_for_account(self, name: str) -> Broker:
        """The shard that owns account ``name``."""
        return self._by_address[self.shard_map.shard_for_account(name)]

    def shard_for_coin(self, coin_y: int) -> Broker:
        """The shard that owns coin key ``coin_y``."""
        return self._by_address[self.shard_map.shard_for_coin(coin_y)]

    # -- BrokerAPI ---------------------------------------------------------------

    @property
    def params(self):
        """Shared group parameters (identical across shards)."""
        return self.shards[0].params

    @property
    def clock(self):
        """Shared simulation clock."""
        return self.shards[0].clock

    @property
    def renewal_period(self) -> float:
        """Binding renewal period (identical across shards)."""
        return self.shards[0].renewal_period

    @property
    def public_key(self) -> PublicKey:
        """The federation's shared signing key ``pk_B``."""
        return self.shards[0].public_key

    @property
    def address(self) -> str:
        """Default shard address (clients carrying a shard map re-route)."""
        return self.shards[0].address

    def open_account(self, name: str, identity: PublicKey, balance: int) -> None:
        """Open the account on its home shard."""
        self.shard_for_account(name).open_account(name, identity, balance)

    def open_account_from_certificate(self, certificate: Any, ca_key: PublicKey, balance: int) -> None:
        """Open a certificate-backed account on its home shard."""
        self.shard_for_account(certificate.subject).open_account_from_certificate(
            certificate, ca_key, balance
        )

    def balance(self, name: str) -> int:
        """Balance as recorded by the account's home shard."""
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
        """Federation-wide conservation: every shard locally, and the sum.

        Requires no in-flight handoffs (each one carries value between two
        shards' baselines); complete them first.
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
        """Merged audit export plus the per-shard breakdown."""
        merged_counts = self.counts
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
            "operation_counts": {
                "purchases": merged_counts.purchases,
                "deposits": merged_counts.deposits,
                "downtime_transfers": merged_counts.downtime_transfers,
                "downtime_renewals": merged_counts.downtime_renewals,
                "syncs": merged_counts.syncs,
                "binding_queries": merged_counts.binding_queries,
                "handoffs": merged_counts.handoffs,
            },
            "pending_handoffs": sum(len(shard.pending_handoffs) for shard in self.shards),
            "shards": {shard.address: shard.export_ledger() for shard in self.shards},
        }

    def complete_pending_handoffs(self) -> int:
        """Re-drive orphaned handoffs on every shard; returns the total."""
        return sum(shard.complete_pending_handoffs() for shard in self.shards)

    def health(self) -> dict[str, Any]:
        """Federation health: per-shard liveness plus roll-up flags.

        ``ok`` is True only when every shard is online and no handoff is
        stranded mid-flight — the condition under which
        :meth:`verify_conservation` can hold.
        """
        shards = {shard.address: shard.health() for shard in self.shards}
        return {
            "ok": all(entry["ok"] for entry in shards.values()),
            "shards_online": sum(1 for entry in shards.values() if entry["online"]),
            "shards_total": len(self.shards),
            "pending_handoffs": sum(entry["pending_handoffs"] for entry in shards.values()),
            "shards": shards,
        }
