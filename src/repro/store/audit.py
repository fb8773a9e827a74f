"""Post-recovery invariant auditor.

Recovery is only trustworthy if the rebuilt state provably satisfies the
monetary invariants the paper's security argument rests on.  The auditor
checks five families and reports every violation (it never stops at the
first — a corrupted store should be diagnosed in one pass):

1. **Value conservation** — account balances plus circulating coin value
   equal the total value ever opened; no balance is negative.
2. **Deposited ⇒ retired** — every deposited coin is a known coin, is
   excluded from circulation by construction, and has no live downtime
   binding (a deposit pops the binding).
3. **Index consistency** — the owner index and the coin registry agree in
   both directions, and every pending-sync entry names a real owned coin.
4. **Signatures** — every coin certificate and downtime binding verifies
   under the broker's (restored) signing key, batch-checked.
5. **Reservations** — the reserved halves of all pending handoffs are still
   jointly admissible under the effects table (:mod:`repro.store.apply`):
   committing them can neither overdraw an account nor touch a coin twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.errors import ProtocolError
from repro.crypto.dsa import dsa_batch_verify, dsa_verify
from repro.store.apply import Reserved, validate_effects

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import Broker


@dataclass
class AuditReport:
    """Outcome of one audit pass."""

    ok: bool
    failures: list[str] = field(default_factory=list)
    accounts_checked: int = 0
    coins_checked: int = 0
    bindings_checked: int = 0


def audit_broker(broker: "Broker", expected_total: int | None = None) -> AuditReport:
    """Run every invariant family against ``broker``; never raises.

    ``expected_total`` overrides the broker's own ``total_opened`` counter
    when the caller tracks injected value independently (tests do).
    """
    failures: list[str] = []
    total = broker.total_opened if expected_total is None else expected_total

    # 1. Value conservation.
    balances = sum(account.balance for account in broker.accounts.values())
    circulating = broker.circulating_value()
    if balances + circulating != total:
        failures.append(
            f"value not conserved: accounts {balances} + circulating "
            f"{circulating} != opened {total}"
        )
    for name, account in broker.accounts.items():
        if account.balance < 0:
            failures.append(f"account {name!r} has negative balance {account.balance}")

    # 2. Deposited ⇒ retired.
    for coin_y in broker.deposited:
        if coin_y not in broker.valid_coins:
            failures.append(f"deposited coin {coin_y:#x} was never minted")
        if coin_y in broker.downtime_bindings:
            failures.append(f"deposited coin {coin_y:#x} still has a live binding")

    # 3. Index consistency (owner index ↔ coin registry, both directions).
    for owner, coins in broker.owner_coins.items():
        for coin_y in coins:
            coin = broker.valid_coins.get(coin_y)
            if coin is None:
                failures.append(f"owner index names unknown coin {coin_y:#x}")
            elif coin.owner_address != owner:
                failures.append(
                    f"owner index says {owner!r} owns {coin_y:#x}, "
                    f"certificate says {coin.owner_address!r}"
                )
    for coin_y, coin in broker.valid_coins.items():
        owner = coin.owner_address
        if owner is not None and coin_y not in broker.owner_coins.get(owner, set()):
            failures.append(f"coin {coin_y:#x} missing from {owner!r}'s owner index")
    for owner, coins in broker.pending_sync.items():
        for coin_y in coins:
            if coin_y not in broker.valid_coins:
                failures.append(f"pending sync names unknown coin {coin_y:#x}")

    # 4. Signatures: every certificate and binding under the restored key.
    batch = []
    for coin_y, coin in broker.valid_coins.items():
        if coin.cert.signer.y != broker.public_key.y:
            failures.append(f"coin {coin_y:#x} certificate signed by a foreign key")
            continue
        batch.append(coin.cert.triple)
    bindings_checked = 0
    for coin_y, binding in broker.downtime_bindings.items():
        bindings_checked += 1
        if binding.signed.signer.y != broker.public_key.y:
            failures.append(f"binding for {coin_y:#x} signed by a foreign key")
            continue
        batch.append(binding.signed.triple)
    if batch and not dsa_batch_verify(batch):
        # Fall back to singles so the report names the offender(s).
        for signer, payload, signature in batch:
            if not dsa_verify(signer, payload, signature):
                failures.append("a stored certificate or binding fails verification")

    # 5. Reservations: what pending handoffs will apply must still fit.
    held = Reserved()
    for h in sorted(broker.pending_handoffs):
        try:
            validate_effects(broker, broker.pending_handoffs[h]["effects"], held)
        except ProtocolError as exc:
            failures.append(f"pending handoff {h} can no longer commit: {exc}")

    return AuditReport(
        ok=not failures,
        failures=failures,
        accounts_checked=len(broker.accounts),
        coins_checked=len(broker.valid_coins),
        bindings_checked=bindings_checked,
    )
