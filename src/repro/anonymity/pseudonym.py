"""Pseudonymous funding constructors (the WP110 anonymity boundary).

A top-up debits a *named* account while holdership is proven anonymously
through the dual-signed holder envelope.  Writing the account name (or any
other peer identifier) into the envelope payload would put an identity on
the anonymous channel, linking the pseudonymous coin to its funder.  The
sanctioned shape is a *funding voucher*: the debit authorization sealed
under the funding identity, attached as opaque bytes.  The broker verifies
the voucher's signature and reads the account from inside it; a payee or
relay observing the envelope sees only ciphertext-shaped bytes.

These constructors are the only functions the anonymity-taint rule (WP110)
accepts as carriers of peer-identifying values into holder envelopes.
"""

from __future__ import annotations

import secrets

from repro.crypto.keys import KeyPair
from repro.messages.envelope import seal


def funding_voucher(identity: KeyPair, account: str, amount: int, coin_y: int) -> bytes:
    """Seal a debit authorization for ``amount`` against ``account``.

    The only identity-bearing content permitted inside a holder envelope,
    and only in this sealed form: the broker authenticates the debit from
    the signature, everyone else sees opaque bytes.
    """
    return seal(
        identity,
        {
            "kind": "whopay.debit_auth",
            "account": account,
            "amount": amount,
            "coin_y": coin_y,
        },
    ).encode()


def bearer_account(prefix: str = "bearer") -> str:
    """A fresh, unlinkable account name.

    Fund coins from an account created under a throwaway identity when even
    the broker must not link the top-up to a long-lived peer name.
    """
    return f"{prefix}-{secrets.token_hex(16)}"
