"""Chord: consistent-hashing ring with finger tables.

A faithful, single-process implementation of the Chord protocol (Stoica et
al., SIGCOMM 2001 — the paper's reference [28]): every node owns the arc of
the 160-bit identifier circle between its predecessor and itself; lookups
walk finger tables in O(log n) hops; joins and graceful leaves hand data to
the new owner; ``stabilize``/``fix_fingers`` repair the ring after churn.

Routing happens over :class:`repro.net.transport.Transport` messages, so
lookup hop counts show up in the transport's communication counters like any
other protocol traffic.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable

from repro.net.node import Node
from repro.net.rpc import RpcClient
from repro.net.transport import NetworkError, NodeOffline, Transport

M = 160  # identifier bits
RING = 1 << M


def key_to_id(key: bytes) -> int:
    """Hash an arbitrary key to a point on the identifier circle."""
    return int.from_bytes(hashlib.sha1(key).digest(), "big") % RING


def _in_interval(x: int, a: int, b: int, inclusive_right: bool = True) -> bool:
    """True iff ``x`` lies on the circular interval (a, b] (or (a, b))."""
    if a == b:
        # Whole circle (single-node ring): everything matches except when the
        # open interval is requested, where only x != a matches.
        return inclusive_right or x != a
    if a < b:
        return (a < x <= b) if inclusive_right else (a < x < b)
    return (x > a or x <= b) if inclusive_right else (x > a or x < b)


#: How many copies of each value exist (owner + replicas on successors).
DEFAULT_REPLICATION = 3

#: Virtual-time budget for one ring RPC (WP114).
CHORD_DEADLINE = 30.0


class ChordNode(Node):
    """One DHT server.

    Storage is a plain dict ``id -> value``; the binding-store policy layer
    (see :mod:`repro.dht.binding_store`) is injected as ``put_validator``
    and the notification fan-out as ``after_put``, so Chord itself stays
    policy-free.

    Accepted puts are replicated to the next ``replication - 1`` live
    successors, so a *crash* (not just a graceful leave) loses no data: after
    stabilization re-routes the arc to the crashed node's successor, that
    successor already holds the replicas and serves reads seamlessly.
    """

    def __init__(
        self,
        transport: Transport,
        address: str,
        node_id: int | None = None,
        replication: int = DEFAULT_REPLICATION,
    ) -> None:
        super().__init__(transport, address)
        self.replication = max(1, replication)
        self.node_id = node_id if node_id is not None else key_to_id(address.encode())
        self.successor: str = address
        self.predecessor: str | None = None
        self.fingers: list[str] = [address] * M
        self.successor_list: list[str] = []  # fault-tolerance chain (r = 4)
        self.stabilize_failures = 0  # churn-expected stabilize RPC failures
        self.storage: dict[int, Any] = {}
        #: ``(key_id, stored, value) -> reason | None``: a put's admission test
        self.put_validator: Callable[[int, Any, Any], str | None] | None = None
        #: ``(key_id, value)``: called after each accepted put
        self.after_put: Callable[[int, Any], None] | None = None
        self.on("chord.find_successor", self._handle_find_successor)
        self.on("chord.get_predecessor", lambda src, _p: self.predecessor)
        self.on("chord.get_successor_list", lambda src, _p: [self.successor, *self.successor_list])
        self.on("chord.notify", self._handle_notify)
        self.on("chord.put", self._handle_put)
        self.on("chord.get", self._handle_get)
        self.on("chord.absorb", self._handle_absorb)

    # -- id helpers ----------------------------------------------------------

    def _id_of(self, address: str) -> int:
        return self.transport.node(address).node_id  # type: ignore[attr-defined]

    # -- routing -------------------------------------------------------------

    def closest_preceding(self, target_id: int) -> str:
        """Best finger strictly between this node and ``target_id``."""
        for finger in reversed(self.fingers):
            if not self.transport.is_online(finger):
                continue
            fid = self._id_of(finger)
            if _in_interval(fid, self.node_id, target_id, inclusive_right=False):
                return finger
        return self.address

    def _handle_find_successor(self, src: str, target_id: int) -> dict[str, Any]:
        succ_id = self._id_of(self.successor)
        if _in_interval(target_id, self.node_id, succ_id, inclusive_right=True):
            return {"done": True, "address": self.successor}
        return {"done": False, "address": self.closest_preceding(target_id)}

    def find_successor(self, target_id: int, max_hops: int = 2 * M) -> str:
        """Iterative lookup: who owns ``target_id``?

        Each hop is a transport request, so routing cost is measured.  Raises
        :class:`NetworkError` if the ring cannot resolve within ``max_hops``
        (a partitioned or unstabilized ring).
        """
        current = self.address
        for _ in range(max_hops):
            if current == self.address:
                answer = self._handle_find_successor(self.address, target_id)
            else:
                answer = self.request(current, "chord.find_successor", target_id)
            if answer["done"]:
                return answer["address"]
            next_hop = answer["address"]
            if next_hop == current:
                # Routing made no progress: fall back to the successor chain.
                succ = self.transport.node(current).successor  # type: ignore[attr-defined]
                if succ == current:
                    return current
                next_hop = succ
            current = next_hop
        raise NetworkError(f"lookup for {target_id:x} exceeded {max_hops} hops")

    # -- ring maintenance ------------------------------------------------------

    def join(self, bootstrap: "ChordNode") -> None:
        """Join the ring known to ``bootstrap``."""
        self.predecessor = None
        self.successor = bootstrap.find_successor(self.node_id)
        if self.successor == self.address:
            self.successor = bootstrap.address

    def stabilize(self) -> None:
        """One round of the Chord stabilization protocol.

        Includes the successor-list failover: when the successor has failed,
        the next live entry of the successor list takes its place — the
        standard Chord resilience mechanism.
        """
        if self.successor != self.address and not self.transport.is_online(self.successor):
            replacement = next(
                (s for s in self.successor_list if s != self.successor and self.transport.is_online(s)),
                self.address,
            )
            self.successor = replacement
        try:
            pred_of_succ = self.request(self.successor, "chord.get_predecessor", None)
        except (NodeOffline, NetworkError):
            return
        if pred_of_succ is not None and self.transport.is_online(pred_of_succ):
            pid = self._id_of(pred_of_succ)
            if _in_interval(pid, self.node_id, self._id_of(self.successor), inclusive_right=False):
                self.successor = pred_of_succ
        try:
            self.request(self.successor, "chord.notify", self.address)
            succ_list = self.request(self.successor, "chord.get_successor_list", None)
            self.successor_list = [s for s in succ_list if s != self.address][:4]
        except (NodeOffline, NetworkError):
            # Expected under churn; the next stabilize round retries.  The
            # counter keeps the failure observable to ring-health checks.
            self.stabilize_failures += 1

    def _handle_notify(self, src: str, candidate: str) -> None:
        if self.predecessor is None or not self.transport.is_online(self.predecessor):
            self.predecessor = candidate
            return None
        cid = self._id_of(candidate)
        if _in_interval(cid, self._id_of(self.predecessor), self.node_id, inclusive_right=False):
            self.predecessor = candidate
        return None

    def fix_fingers(self) -> None:
        """Recompute the whole finger table via lookups."""
        for i in range(M):
            start = (self.node_id + (1 << i)) % RING
            try:
                self.fingers[i] = self.find_successor(start)
            except NetworkError:
                self.fingers[i] = self.successor

    def leave(self) -> None:
        """Graceful departure: hand storage to the successor, go offline."""
        if self.successor != self.address and self.transport.is_online(self.successor):
            self.request(self.successor, "chord.absorb", list(self.storage.items()))
        self.storage.clear()
        self.go_offline()

    def _handle_absorb(self, src: str, items: list) -> None:
        for key_id, value in items:
            self.storage[key_id] = value
        return None

    # -- storage ---------------------------------------------------------------

    def _handle_put(self, src: str, payload: dict) -> dict:
        key_id = payload["key_id"]
        value = payload["value"]
        if self.put_validator is not None:
            verdict = self.put_validator(key_id, self.storage.get(key_id), value)
            if verdict is not None:
                return {"ok": False, "reason": verdict}
        self.storage[key_id] = value
        self._replicate(key_id, value)
        if self.after_put is not None:
            self.after_put(key_id, value)
        return {"ok": True, "reason": None}

    def _replicate(self, key_id: int, value: Any) -> None:
        """Push an accepted value to the next ``replication - 1`` successors.

        Validation already happened at the owner, so replicas absorb
        directly.  Offline successors are skipped; the next accepted put (or
        a graceful handoff) repairs their copy.
        """
        pushed = 0
        seen: set[str] = set()
        for successor in [self.successor, *self.successor_list]:
            if pushed >= self.replication - 1:
                break
            if successor == self.address or successor in seen:
                continue
            seen.add(successor)
            if not self.transport.is_online(successor):
                continue
            try:
                self.request(successor, "chord.absorb", [(key_id, value)])
                pushed += 1
            except (NodeOffline, NetworkError):
                continue

    def _handle_get(self, src: str, key_id: int) -> Any:
        return self.storage.get(key_id)


class ChordRing:
    """Builds and maintains a ring of :class:`ChordNode` servers.

    The coordinator exists for tests and experiments: real deployments run
    ``stabilize``/``fix_fingers`` on timers, which a single-process harness
    emulates with :meth:`stabilize_all` rounds.
    """

    def __init__(self, transport: Transport, size: int, prefix: str = "dht") -> None:
        if size < 1:
            raise ValueError("ring needs at least one node")
        self.transport = transport
        # Client-side sends (put/get route on behalf of arbitrary callers)
        # go through a transport-bound RPC client with per-call src.
        self.rpc = RpcClient(transport=transport)
        self.nodes: list[ChordNode] = [
            ChordNode(transport, f"{prefix}-{i}") for i in range(size)
        ]
        first = self.nodes[0]
        for node in self.nodes[1:]:
            node.join(first)
            self.stabilize_all(rounds=2)
        self.stabilize_all(rounds=size)
        self.rebuild_fingers()

    def stabilize_all(self, rounds: int = 1) -> None:
        """Run ``rounds`` stabilization rounds over every online node."""
        for _ in range(rounds):
            for node in self.nodes:
                if node.online:
                    node.stabilize()

    def rebuild_fingers(self) -> None:
        """Recompute every online node's finger table."""
        for node in self.nodes:
            if node.online:
                node.fix_fingers()

    def owner_of(self, key: bytes) -> ChordNode:
        """The node currently responsible for ``key``."""
        entry = next(node for node in self.nodes if node.online)
        address = entry.find_successor(key_to_id(key))
        return self.transport.node(address)  # type: ignore[return-value]

    def put(self, key: bytes, value: Any, src: str = "client") -> dict:
        """Route a put to the owner of ``key``."""
        owner = self.owner_of(key)
        return self.rpc.call(
            owner.address,
            "chord.put",
            {"key_id": key_to_id(key), "value": value},
            src=src,
            deadline=CHORD_DEADLINE,
        )

    def get(self, key: bytes, src: str = "client") -> Any:
        """Route a get to the owner of ``key``."""
        owner = self.owner_of(key)
        return self.rpc.call(
            owner.address, "chord.get", key_to_id(key), src=src, deadline=CHORD_DEADLINE
        )
