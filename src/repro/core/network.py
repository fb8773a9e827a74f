"""One-call assembly of a complete WhoPay deployment.

:class:`WhoPayNetwork` wires together everything a scenario needs — the
transport, clock, judge, broker, peers, and optionally the DHT-backed
real-time detection service — with sane defaults, so examples and tests can
say::

    net = WhoPayNetwork(params=PARAMS_TEST_512)
    alice = net.add_peer("alice", PeerConfig(balance=10))
    bob = net.add_peer("bob")
    coin = alice.purchase()
    alice.issue("bob", coin.coin_y)
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.broker import Broker
from repro.core.brokerapi import BrokerAPI, ShardRouter
from repro.core.clock import DEFAULT_RENEWAL_PERIOD, Clock
from repro.core.detection import DetectionService
from repro.core.judge import Judge
from repro.core.peer import Peer
from repro.core.sharding import DEFAULT_POINTS_PER_SHARD, ShardMap
from repro.core.supervision import LeaseGatedSupervision
from repro.crypto.keys import KeyPair
from repro.crypto.params import DlogParams, default_params
from repro.dht.binding_store import BindingStore
from repro.dht.chord import ChordRing
from repro.dht.notify import NotificationHub
from repro.net.liveness import BreakerConfig
from repro.net.rpc import RetryPolicy
from repro.net.transport import FaultPlan, Transport
from repro.store.crashpoints import CrashPointPlan
from repro.store.journal import DurableStore
from repro.store.recovery import RecoveryManager, RecoveryResult


@dataclass(frozen=True)
class BrokerTopology:
    """How the mint side of the network is laid out.

    ``shards=1`` (default) builds one broker at ``base_address`` — a
    federation of one, on the same routing path as any other.
    ``shards=M`` builds a federation of ``M`` shard brokers
    (``base_address-0`` … ``base_address-{M-1}``) sharing one signing key,
    partitioned by the consistent-hash ring in :mod:`repro.core.sharding`,
    and fronted by a :class:`~repro.core.brokerapi.ShardRouter`.
    """

    shards: int = 1
    points_per_shard: int = DEFAULT_POINTS_PER_SHARD
    base_address: str = "broker"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a topology needs at least one shard")
        if self.points_per_shard < 1:
            raise ValueError("points_per_shard must be >= 1")

    def addresses(self) -> tuple[str, ...]:
        """The shard addresses this topology creates."""
        if self.shards == 1:
            return (self.base_address,)
        return tuple(f"{self.base_address}-{index}" for index in range(self.shards))


@dataclass(frozen=True)
class PeerConfig:
    """Per-peer setup options for :meth:`WhoPayNetwork.add_peer`.

    Call sites name what they configure
    (``PeerConfig(balance=10, durable=True)``).
    """

    balance: int = 0
    sync_mode: str | None = None
    durable: bool = False

    def __post_init__(self) -> None:
        if self.balance < 0:
            raise ValueError("opening balance cannot be negative")
        if self.sync_mode not in (None, "proactive", "lazy"):
            raise ValueError("sync_mode must be 'proactive', 'lazy', or None")


class WhoPayNetwork:
    """A fully wired WhoPay system in one object."""

    def __init__(
        self,
        params: DlogParams | None = None,
        enable_detection: bool = False,
        dht_size: int = 8,
        dht_backend: str = "chord",
        sync_mode: str = "proactive",
        renewal_period: float = DEFAULT_RENEWAL_PERIOD,
        retry_policy: RetryPolicy | None = None,
        store_dir: str | Path | None = None,
        topology: BrokerTopology | None = None,
        breaker_config: BreakerConfig | None = None,
    ) -> None:
        self.params = params or default_params()
        self.transport = Transport()
        self.clock = Clock()
        # Partition windows in a FaultPlan are scheduled against this clock.
        self.transport.clock = self.clock
        self.retry_policy = retry_policy
        self.judge = Judge(self.params)
        # Durability: with a store_dir each broker shard journals every
        # mutation to <store_dir>/<address> and can be killed/recovered.
        self.store_dir = None if store_dir is None else Path(store_dir)
        self.topology = topology or BrokerTopology()
        addresses = self.topology.addresses()
        # One signing key for the whole federation: a coin minted by any
        # shard verifies against the same system-wide pk_B.
        signing_key = KeyPair.generate(self.params)
        # One ring for every topology: at M=1 it has a single address, so a
        # lone broker and its peers run the same routing code as a federation.
        self.shard_map = ShardMap(addresses, points_per_shard=self.topology.points_per_shard)
        self.shards: list[Broker] = []
        for address in addresses:
            shard_store = None
            if self.store_dir is not None:
                shard_store = DurableStore(self.store_dir / address)
            shard = Broker(
                self.transport,
                judge=self.judge,
                params=self.params,
                clock=self.clock,
                address=address,
                renewal_period=renewal_period,
                store=shard_store,
                keypair=signing_key,
            )
            shard.attach_federation(self.shard_map, policy=retry_policy)
            self.shards.append(shard)
        self.router: ShardRouter | None = None
        if self.topology.shards > 1:
            self.router = ShardRouter(self.shards, self.shard_map)
        #: The unified broker surface (BrokerAPI): the single Broker when
        #: shards == 1, the ShardRouter facade otherwise.
        self.broker: BrokerAPI = self.router if self.router is not None else self.shards[0]
        self.broker_restarts = 0
        self.last_recovery: RecoveryResult | None = None
        #: Client-side degradation: with a breaker config, every peer's
        #: broker facade runs behind per-destination circuit breakers and
        #: queues payments aimed at a tripped shard instead of failing.
        self.breaker_config = breaker_config
        #: The attached supervisor (see :meth:`supervise_broker`).
        self.supervision: LeaseGatedSupervision | None = None
        self.sync_mode = sync_mode
        self.renewal_period = renewal_period
        self.peers: dict[str, Peer] = {}
        # PKI: every peer gets a CA-issued identity certificate (the
        # "public key certificate" of Section 4.2's purchase flow).
        from repro.pki import CertificateAuthority

        self.ca = CertificateAuthority(self.params)
        self.detection: DetectionService | None = None
        if enable_detection:
            # The §5.1 infrastructure is DHT-agnostic; pick the fabric.
            if dht_backend == "chord":
                fabric = ChordRing(self.transport, size=dht_size)
            elif dht_backend == "kademlia":
                from repro.dht.kademlia import KademliaNetwork

                fabric = KademliaNetwork(self.transport, size=dht_size)
            else:
                raise ValueError("dht_backend must be 'chord' or 'kademlia'")
            store = BindingStore(fabric, self.params, self.broker.public_key)
            hub = NotificationHub(store)
            self.detection = DetectionService(store, hub, self.params)
            for shard in self.shards:
                shard.detection = self.detection

    def add_peer(self, address: str, config: PeerConfig | None = None) -> Peer:
        """Register a user: judge enrollment, broker account, transport node.

        Pass a :class:`PeerConfig` for per-peer options.
        ``PeerConfig(durable=True)`` (requires ``store_dir``) gives the peer
        a journaled wallet at ``<store_dir>/<address>`` so it can be killed
        and recovered with :meth:`restart_peer`.
        """
        config = config or PeerConfig()
        store = None
        if config.durable:
            if self.store_dir is None:
                raise ValueError("durable peers need the network built with store_dir")
            store = DurableStore(self.store_dir / address)
        member_key = self.judge.register(address)
        peer = Peer(
            self.transport,
            address=address,
            params=self.params,
            clock=self.clock,
            judge=self.judge,
            member_key=member_key,
            broker_address=self.shards[0].address,
            broker_key=self.broker.public_key,
            sync_mode=config.sync_mode if config.sync_mode is not None else self.sync_mode,
            renewal_period=self.renewal_period,
            retry_policy=self.retry_policy,
            store=store,
            shard_map=self.shard_map,
            breaker_config=self.breaker_config,
        )
        peer.detection = self.detection
        peer.certificate = self.ca.issue(address, peer.identity.public, self.clock.now())
        self.broker.open_account_from_certificate(peer.certificate, self.ca.public_key, config.balance)
        self.peers[address] = peer
        return peer

    def peer(self, address: str) -> Peer:
        """Look up a peer by address."""
        return self.peers[address]

    def advance(self, seconds: float) -> float:
        """Move simulated time forward (and run one supervision round).

        Under :meth:`supervise_broker`, each advance emits the heartbeats
        that came due and runs the detector/lease failover check — time
        moving is what lets a dead shard be noticed.
        """
        now = self.clock.advance(seconds)
        if self.supervision is not None:
            self.supervision.tick(now)
        return now

    def drain_queued_payments(self) -> int:
        """Drain every peer's queued payments (post-recovery); returns count."""
        return sum(peer.drain_payment_queue() for peer in self.peers.values())

    def install_faults(self, plan: FaultPlan | None) -> None:
        """Install (or remove, with ``None``) a fault plan on the fabric."""
        self.transport.install_faults(plan)

    # -- durability / crash-recovery ---------------------------------------

    def _shard_at(self, shard: int | None) -> Broker:
        """Resolve a shard index (``None`` means the sole shard)."""
        if shard is None:
            if len(self.shards) > 1:
                raise ValueError("federated network: pass an explicit shard index")
            return self.shards[0]
        return self.shards[shard]

    def arm_crash_points(self, plan: CrashPointPlan | None, shard: int | None = None) -> None:
        """Attach a crash-point plan to a broker shard's store.

        Arm *after* setup traffic so crash-point indices enumerate
        steady-state fsync boundaries (the chaos sweep relies on a stable
        numbering across runs with the same seed).  ``shard`` selects the
        federation member to arm (omit for a standalone broker).
        """
        target = self._shard_at(shard)
        if target.store is None:
            raise ValueError("the network was not built with store_dir")
        target.store.crash_points = plan

    def snapshot_broker(self, shard: int | None = None) -> int:
        """Snapshot a broker shard into its store and compact the journal."""
        from repro.core.persistence import save_broker_snapshot

        target = self._shard_at(shard)
        if target.store is None:
            raise ValueError("the network was not built with store_dir")
        return save_broker_snapshot(target, target.store)

    def supervise_broker(
        self, policy: LeaseGatedSupervision | None = None
    ) -> LeaseGatedSupervision:
        """Attach a shard supervisor (default liveness configuration if omitted).

        No transport magic: shard death is noticed by heartbeat silence
        (phi-accrual detector) and repaired only after the dead shard's
        lease lapses, on the :meth:`advance` that finds both true.  A
        supervisor attached earlier is detached first (its monitor leaves
        the transport).  Returns the attached supervisor.
        """
        if self.supervision is not None:
            self.supervision.detach()
        self.supervision = policy if policy is not None else LeaseGatedSupervision()
        self.supervision.attach(self)
        return self.supervision

    def kill_shard(self, index: int) -> None:
        """Take one broker shard off the network, journal intact.

        Models abrupt process death: in-flight and future callers see
        ``NodeOffline`` (fail-fast; churn is protocol-visible), heartbeats
        stop, and only a supervision policy — or an explicit
        :meth:`restart_shard` — brings the shard back.
        """
        self.shards[index].go_offline()

    def restart_broker(self) -> RecoveryResult:
        """Kill the standalone broker and recover it from disk (1-shard form)."""
        if len(self.shards) > 1:
            raise ValueError("federated network: use restart_shard(index)")
        return self.restart_shard(0)

    def restart_shard(self, index: int) -> RecoveryResult:
        """Kill one broker shard and recover a new instance from its journal.

        The armed crash-point plan is detached during recovery (recovery's
        own journal repair must not re-crash) and re-attached — minus the
        already-fired point — afterwards.  The recovered shard rejoins the
        federation (same shard map, same retry policy) and replaces the old
        instance in the router, so peers' routed calls hit it seamlessly.
        """
        shard = self.shards[index]
        store = shard.store
        if store is None:
            raise ValueError("the network was not built with store_dir")
        plan, store.crash_points = store.crash_points, None
        detection = shard.detection
        self.transport.unregister(shard.address)
        result = RecoveryManager(store).recover_broker(
            self.transport,
            judge=self.judge,
            params=self.params,
            clock=self.clock,
            renewal_period=self.renewal_period,
            address=shard.address,
        )
        recovered = result.entity
        recovered.detection = detection
        recovered.attach_federation(self.shard_map, policy=self.retry_policy)
        store.crash_points = plan
        self.shards[index] = recovered
        if self.router is not None:
            self.router.shards[index] = recovered
            self.router._by_address[recovered.address] = recovered
        else:
            self.broker = recovered
        self.broker_restarts += 1
        self.last_recovery = result
        return result

    def complete_handoffs(self) -> int:
        """Re-drive cross-shard handoffs orphaned by crashes; returns count."""
        return self.broker.complete_pending_handoffs()

    def restart_peer(self, address: str) -> RecoveryResult:
        """Kill a durable peer and recover it from its journaled wallet."""
        peer = self.peers[address]
        if peer.store is None:
            raise ValueError(f"peer {address!r} is not durable")
        store = peer.store
        certificate = getattr(peer, "certificate", None)
        detection = peer.detection
        self.transport.unregister(address)
        result = RecoveryManager(store).recover_peer(
            self.transport,
            params=self.params,
            clock=self.clock,
            judge=self.judge,
            broker_address=self.broker.address,
            broker_key=self.broker.public_key,
            sync_mode=peer.sync_mode,
            renewal_period=self.renewal_period,
            retry_policy=self.retry_policy,
            shard_map=self.shard_map,
            breaker_config=self.breaker_config,
        )
        recovered = result.entity
        recovered.detection = detection
        if certificate is not None:
            recovered.certificate = certificate
        self.peers[address] = recovered
        return result
