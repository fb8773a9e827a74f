"""PayWord-style hash chains (paper Section 7, micropayment aggregation).

A chain is built by repeatedly hashing a random seed::

    w_n = seed;   w_i = H(w_{i+1})   for i = n-1 … 0

The anchor ``w_0`` is committed (in WhoPay's extension, signed alongside a
credit-window agreement); revealing ``w_i`` then proves the payer authorized
``i`` unit payments, because producing a preimage chain of length ``i``
ending at the anchor is infeasible without the seed.  The paper's Section 7
aggregates many such unit payments into one WhoPay payment.  No protocol in
this package does that yet: the chain is a primitive of :mod:`repro.crypto`,
timed by ``benchmarks/bench_crypto_ops.py``.
"""

from __future__ import annotations

import secrets

from repro.crypto import primitives


class HashChain:
    """A payer-side PayWord chain of ``length`` spendable units."""

    def __init__(self, length: int, seed: bytes | None = None) -> None:
        if length < 1:
            raise ValueError("chain length must be positive")
        self.length = length
        self._seed = seed if seed is not None else secrets.token_bytes(32)
        # links[i] = w_i; links[0] is the public anchor, links[length] the seed.
        links = [self._seed]
        for _ in range(length):
            links.append(primitives.sha256(links[-1]))
        links.reverse()
        self._links = links
        self._spent = 0

    @property
    def anchor(self) -> bytes:
        """The public commitment ``w_0``."""
        return self._links[0]

    @property
    def spent(self) -> int:
        """Units revealed so far."""
        return self._spent

    @property
    def remaining(self) -> int:
        """Units still spendable."""
        return self.length - self._spent

    def pay(self, units: int = 1) -> tuple[int, bytes]:
        """Spend ``units`` more; returns ``(total_spent, w_total_spent)``.

        The returned pair is the payment token handed to the payee.
        """
        if units < 1:
            raise ValueError("must spend at least one unit")
        if self._spent + units > self.length:
            raise ValueError("hash chain exhausted")
        self._spent += units
        return self._spent, self._links[self._spent]

    def link(self, index: int) -> bytes:
        """The chain value ``w_index`` (0 = anchor); payer-side inspection."""
        if not 0 <= index <= self.length:
            raise IndexError("link index out of range")
        return self._links[index]


def verify_chain_link(anchor: bytes, index: int, link: bytes) -> bool:
    """Payee-side check that ``link`` hashes to ``anchor`` in ``index`` steps.

    Cost is ``index`` hash invocations — the cheapness that makes PayWord a
    viable micropayment primitive.
    """
    if index < 0:
        return False
    value = link
    for _ in range(index):
        value = primitives.sha256(value)
    return primitives.constant_time_eq(value, anchor)
