"""Consistent-hash partitioning of the coin-id and account spaces.

The single broker is the paper's scaling wall (fig2/fig6: load linear in
N).  The federation splits the broker's state across M *shards* by
consistent hashing — the same SHA-1 ring discipline the DHT layer uses
(:func:`repro.dht.chord.key_to_id`), with virtual points per shard so the
arc lengths even out:

* a **coin** (``valid_coins`` entry, its deposit ledger row, its downtime
  binding, its pending-sync membership) lives on the shard owning
  ``hash(coin_y)``;
* an **account** (balance + identity) lives on the shard owning
  ``hash(account name)``.

Routing is therefore derivable by anyone who knows the shard roster — the
:class:`ShardMap` is plain data, shipped to every client, with no
rebalancing protocol (the roster is fixed at federation construction;
growing M is a future migration concern, not a runtime one).

Operations that touch a coin and an account on *different* shards
(purchase, deposit, top-up) become two-step handoffs between shards; see
:mod:`repro.core.broker` and docs/FEDERATION.md.
"""

from __future__ import annotations

import bisect

from repro.dht.chord import key_to_id

#: Default virtual points per shard.  512 points keep the max/mean arc
#: imbalance within a few percent for small M (64 points left one shard
#: of four owning a third of the key space), which is what the
#: bench_federation flattening floor budgets for.  Construction cost is
#: M x 512 SHA-1 hashes once per federation; lookups stay O(log ring).
DEFAULT_POINTS_PER_SHARD = 512


class ShardMap:
    """An immutable consistent-hash ring over broker shard addresses.

    Deterministic: two ShardMaps built from the same roster agree on every
    placement, so clients and shards never need to exchange routing state.
    """

    def __init__(
        self, addresses: list[str] | tuple[str, ...], points_per_shard: int = DEFAULT_POINTS_PER_SHARD
    ) -> None:
        if not addresses:
            raise ValueError("a shard map needs at least one shard address")
        if len(set(addresses)) != len(addresses):
            raise ValueError("shard addresses must be unique")
        if points_per_shard < 1:
            raise ValueError("points_per_shard must be >= 1")
        self.addresses: tuple[str, ...] = tuple(addresses)
        self.points_per_shard = points_per_shard
        ring: dict[int, str] = {}
        for address in self.addresses:
            for point in range(points_per_shard):
                position = key_to_id(f"shard:{address}#{point}".encode())
                # A full SHA-1 collision between virtual points is beyond
                # unlikely; first writer wins keeps the map deterministic.
                ring.setdefault(position, address)
        self._points = sorted(ring)
        self._owners = [ring[position] for position in self._points]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ShardMap)
            and self.addresses == other.addresses
            and self.points_per_shard == other.points_per_shard
        )

    # -- placement ----------------------------------------------------------

    def shard_for_key(self, key: bytes) -> str:
        """The shard owning ``key``'s ring successor."""
        position = key_to_id(key)
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0  # wrap around the circle
        return self._owners[index]

    def shard_for_coin(self, coin_y: int) -> str:
        """Home shard of the coin identified by public key value ``coin_y``."""
        return self.shard_for_key(b"coin|" + coin_y.to_bytes((coin_y.bit_length() + 7) // 8 or 1, "big"))

    def shard_for_account(self, name: str) -> str:
        """Home shard of the account named ``name``."""
        return self.shard_for_key(b"acct|" + name.encode())

    # -- diagnostics --------------------------------------------------------

    def spread(self, coin_ys: list[int]) -> dict[str, int]:
        """How many of ``coin_ys`` land on each shard (bench/diagnostics)."""
        counts = {address: 0 for address in self.addresses}
        for coin_y in coin_ys:
            counts[self.shard_for_coin(coin_y)] += 1
        return counts
