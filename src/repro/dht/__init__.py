"""Distributed hash table substrate (paper Section 5.1).

WhoPay's real-time double-spending detection requires "a trusted,
access-controlled DHT infrastructure" with a put/get interface plus a
register/notify mechanism.  The paper cites Chord/CAN/Pastry/Tapestry for
routing and Bayeux/Scribe for notification and leaves the trusted-DHT design
to future work.  This package builds the whole thing:

* :mod:`repro.dht.chord` — a working Chord ring (consistent hashing,
  successor lists, finger tables, iterative O(log n) lookup, join/leave and
  stabilization, replication) over the in-memory transport.  It is the one
  fabric: a second, XOR-metric fabric cost about twice Chord's messages per
  publish and per fetch, and Chord's replication already survives node
  crashes.
* :mod:`repro.dht.binding_store` — the access-control policy on top: a
  value keyed by coin public key is the signed binding itself, writable
  only with a valid signature by that coin's secret key or by the broker
  (the downtime rule), with monotonic sequence numbers to prevent rollback.
* :mod:`repro.dht.notify` — Scribe/Bayeux-style register/notify: holders
  subscribe to the bindings of the coins they hold and are pushed every
  accepted update (the real-time detection trigger).
"""

from repro.dht.binding_store import BindingStore, WriteRejected
from repro.dht.chord import ChordNode, ChordRing, key_to_id
from repro.dht.notify import NotificationHub

__all__ = [
    "ChordNode",
    "ChordRing",
    "key_to_id",
    "BindingStore",
    "WriteRejected",
    "NotificationHub",
]
