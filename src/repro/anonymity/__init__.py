"""Network-level anonymity substrate (paper Section 4.3).

    "In many situations network level identities (e.g., IP addresses) can
    convey a lot of information and are hence worth hiding as well.  There
    have been many studies in this area, most of which, such as Onion
    Routing [22] and Tarzan [12], involve hiding end points IP addresses by
    using third party proxies.  In this paper, we will assume such
    mechanisms will be adopted whenever network level anonymity is desired."

Rather than assume it, this package builds it:

* :mod:`repro.anonymity.cipher` — Diffie–Hellman key agreement over the
  shared Schnorr groups plus an authenticated stream cipher (hash-counter
  keystream + HMAC), the hop-layer encryption onion routing needs.
* :mod:`repro.anonymity.onion` — onion relays and client circuits: the
  sender wraps a request in per-hop encryption layers; each relay peels one
  layer and forwards; responses are wrapped layer-by-layer on the way back.
  The destination sees the exit relay, the entry relay sees the sender, and
  no single relay sees both ends.

``repro.anonymity.onion.anonymize_node`` reroutes any protocol node's
outbound requests through a circuit, so a WhoPay peer can hide its transport
address from payees, owners, and the broker with one call.
"""

from repro.anonymity.cipher import CipherError, derive_shared_key, open_box, seal_box
from repro.anonymity.onion import OnionCircuit, OnionOverlay, anonymize_node
from repro.anonymity.pseudonym import funding_voucher

__all__ = [
    "derive_shared_key",
    "seal_box",
    "open_box",
    "CipherError",
    "OnionOverlay",
    "OnionCircuit",
    "anonymize_node",
    "funding_voucher",
]
