"""The broker's mutation-application layer.

Every durable broker mutation is described by a small codec-encodable dict
(a *mutation record*) and applied by exactly one function here.  The live
broker path stages a mutation and applies it through this module before
replying; recovery replays the same records through the same functions —
so replay equivalence is structural, not hoped-for.  Lint rule WP106
enforces that no other module (besides :mod:`repro.core.persistence`)
touches the durable fields directly.

Value moves through six primitive **effects**, the rows of :data:`EFFECTS`
(tabulated in docs/FEDERATION.md).  The paper's Section 2 security property
— only the broker creates, retires or increases value — is that every
operation is a pair whose deltas cancel: purchase = ``debit`` + ``mint``,
deposit = ``retire`` + ``credit``, top-up = ``debit`` + ``remint``
(``unmint`` compensates a ``mint``).  An effect is homed on the shard owning
its ``account`` or ``coin_y``; a record carries what *one shard* applies:

``broker_init``        address + signing key (first record of a fresh store)
``open_account``       a lone ``credit``: value enters the system here
``move``               a whole operation on one shard (deltas must cancel)
``downtime_binding``   downtime transfer/renewal: record binding + pending sync
``sync_consumed``      an owner's pending-sync set was delivered and cleared
``handoff_begin``      source half of a cross-shard operation, *reserved*:
                       journaled before any prepare RPC, applied at commit
``handoff_commit``     applies the reserved half (pops the pending record)
``handoff_abort``      destination rejected: release the reservation
``xshard_apply``       destination half, applied once per prepare id

Federation conservation: ``total_opened`` is per-shard and moves by the sum
of applied deltas, so each shard conserves *locally* at every crash point
and the shard-wide sum equals the externally opened value once no handoffs
are in flight.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from repro.core.coin import Coin, CoinBinding
from repro.core.errors import (
    HandoffPending,
    InsufficientFunds,
    ProtocolError,
    UnknownCoin,
    VerificationFailed,
)
from repro.core.protocol import decode_dual, decode_signed
from repro.crypto.keys import KeyPair, PublicKey

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.broker import Broker
    from repro.core.sharding import ShardMap

Triple = tuple[Any, bytes, Any]


class MutationRefused(Exception):
    """A record the apply layer will not apply: an unknown mutation type, or
    a whole operation whose effects would create or destroy value."""


# -- the effects table --------------------------------------------------------


#: What in-flight effects already claim on one shard: until a pending handoff
#: commits or aborts, the debits of its journaled-but-unapplied half are not
#: spendable (account name -> reserved sum) and its coins are taken (coin_y).
Reserved = Counter


def _claim(held: Reserved, effect: dict[str, Any]) -> None:
    if effect["effect"] == "debit":
        held[effect["account"]] += effect["amount"]
    elif "coin_y" in effect:
        held[effect["coin_y"]] += 1


@dataclass(frozen=True)
class Effect:
    """One table row.  ``sign * amount`` is what the effect adds to *accounts
    + circulating* on its shard; ``check`` admits it there against live state
    plus the :data:`Reserved` claims; ``apply`` is the state change (live and
    replay); ``signed`` lists the (signer, payload, signature) artefacts."""

    sign: int
    check: Callable[["Broker", dict[str, Any], Reserved], None]
    apply: Callable[["Broker", dict[str, Any]], None]
    signed: Callable[["Broker", dict[str, Any]], list[Triple]] | None = None


def _coin(broker: "Broker", effect: dict[str, Any]) -> Coin:
    return Coin(cert=decode_signed(effect["coin"], broker.params))


def _free_coin(broker: "Broker", effect: dict[str, Any], held: Reserved) -> Coin:
    """The circulating coin an effect targets, unless something else has it."""
    coin_y = effect["coin_y"]
    coin = broker.valid_coins.get(coin_y)
    if coin is None:
        raise UnknownCoin(f"coin {coin_y:#x} is not in circulation")
    if coin_y in broker.deposited:
        raise ProtocolError(f"coin {coin_y:#x} is already retired")
    if coin_y in held:
        raise HandoffPending(f"coin {coin_y:#x} has a cross-shard operation in flight")
    return coin


def _check_certificate(broker: "Broker", effect: dict[str, Any], value: int) -> Coin:
    coin = _coin(broker, effect)
    if (
        coin.cert.signer.y != broker.public_key.y
        or not coin.verify_unsigned()
        or coin.coin_y != effect["coin_y"]
        or coin.value != value
    ):
        raise VerificationFailed(f"{effect['effect']} carries an invalid certificate")
    return coin


def _check_debit(broker: "Broker", effect: dict[str, Any], held: Reserved) -> None:
    name, amount = effect["account"], effect["amount"]
    account = broker.accounts.get(name)
    if account is None or account.identity.y != effect["identity_y"]:
        raise VerificationFailed("debit not authorized by the account identity")
    reserved = held[name]
    if account.balance - reserved < amount:
        raise InsufficientFunds(
            f"account {name!r} cannot cover {amount}"
            + (f" ({reserved} reserved by in-flight handoffs)" if reserved else "")
        )


def _check_credit(broker: "Broker", effect: dict[str, Any], held: Reserved) -> None:
    if not isinstance(effect["account"], str) or not isinstance(effect["identity_y"], int):
        raise ProtocolError("credit without a payout account")


def _check_mint(broker: "Broker", effect: dict[str, Any], held: Reserved) -> None:
    coin = _check_certificate(broker, effect, effect["amount"])
    if not broker.params.is_element(coin.coin_y):
        raise ProtocolError("coin key is not a valid group element")
    if coin.coin_y in broker.valid_coins or coin.coin_y in held:
        raise ProtocolError("coin key collision (resubmitted purchase?)")


def _check_unmint(broker: "Broker", effect: dict[str, Any], held: Reserved) -> None:
    existing = broker.valid_coins.get(effect["coin_y"])
    if existing is None or existing.encode() != effect["coin"]:
        raise ProtocolError("unmint of a certificate that was never minted here")


def _check_retire(broker: "Broker", effect: dict[str, Any], held: Reserved) -> None:
    if _free_coin(broker, effect, held).value != effect["amount"]:
        raise ProtocolError("retire amount differs from the coin's registered value")


def _check_remint(broker: "Broker", effect: dict[str, Any], held: Reserved) -> None:
    old = _free_coin(broker, effect, held)
    _check_certificate(broker, effect, old.value + effect["amount"])


def _apply_debit(broker: "Broker", effect: dict[str, Any]) -> None:
    broker.accounts[effect["account"]].balance -= effect["amount"]


def _apply_credit(broker: "Broker", effect: dict[str, Any]) -> None:
    from repro.core.broker import Account

    account = broker.accounts.get(effect["account"])
    if account is None:
        broker.accounts[effect["account"]] = Account(
            identity=PublicKey(params=broker.params, y=effect["identity_y"]),
            balance=effect["amount"],
        )
    else:
        account.balance += effect["amount"]


def _apply_mint(broker: "Broker", effect: dict[str, Any]) -> None:
    coin = _coin(broker, effect)
    broker.valid_coins[coin.coin_y] = coin
    if coin.owner_address is not None:
        broker.owner_coins.setdefault(coin.owner_address, set()).add(coin.coin_y)


def _apply_unmint(broker: "Broker", effect: dict[str, Any]) -> None:
    coin = broker.valid_coins.pop(effect["coin_y"])
    if coin.owner_address is not None:
        broker.owner_coins[coin.owner_address].discard(coin.coin_y)


def _apply_retire(broker: "Broker", effect: dict[str, Any]) -> None:
    broker.deposited[effect["coin_y"]] = effect["envelope"]
    broker.downtime_bindings.pop(effect["coin_y"], None)


def _apply_remint(broker: "Broker", effect: dict[str, Any]) -> None:
    broker.valid_coins[effect["coin_y"]] = _coin(broker, effect)


def _signed_certificate(broker: "Broker", effect: dict[str, Any]) -> list[Triple]:
    return [decode_signed(effect["coin"], broker.params).triple]


def _signed_envelope(broker: "Broker", effect: dict[str, Any]) -> list[Triple]:
    return [decode_dual(effect["envelope"], broker.params).inner.triple]


#: The value-move table: read by the live handlers, the cross-shard prepare
#: handler, journal replay, recovery's re-verification and the auditor.
EFFECTS: dict[str, Effect] = {
    "debit": Effect(-1, _check_debit, _apply_debit),
    "credit": Effect(+1, _check_credit, _apply_credit),
    "mint": Effect(+1, _check_mint, _apply_mint, _signed_certificate),
    "unmint": Effect(-1, _check_unmint, _apply_unmint),
    "retire": Effect(-1, _check_retire, _apply_retire, _signed_envelope),
    "remint": Effect(+1, _check_remint, _apply_remint, _signed_certificate),
}


def effect(name: str, amount: int, **fields: Any) -> dict[str, Any]:
    """One effect record: a row name, its amount, and the row's own fields
    (``account`` + ``identity_y``, or ``coin_y`` + ``coin`` / ``envelope``)."""
    return {"effect": name, "amount": amount, **fields}


def home_of(shard_map: "ShardMap", effect: dict[str, Any]) -> str:
    """Address of the shard that owns (and therefore applies) ``effect``."""
    if "account" in effect:
        return shard_map.shard_for_account(effect["account"])
    return shard_map.shard_for_coin(effect["coin_y"])


def validate_effects(broker: "Broker", effects: Any, held: Reserved | None = None) -> None:
    """Admit ``effects`` on the shard that will apply them, or raise a typed
    :class:`~repro.core.errors.ProtocolError`; never mutates.

    Each row's ``check`` runs in order against live state plus the claims
    of pending handoffs' unapplied halves (the default ``held``) and of the
    list's own earlier effects: no coin twice, no overdraw by two debits.
    """
    if held is None:
        held = Reserved()
        for record in broker.pending_handoffs.values():
            for pending in record["effects"]:
                _claim(held, pending)
    try:
        for effect in effects:
            spec = EFFECTS[effect["effect"]]
            # Zero is legal: it is how a zero-balance account is opened.
            if type(effect["amount"]) is not int or effect["amount"] < 0:
                raise ValueError("amount must be a non-negative integer")
            spec.check(broker, effect, held)
            _claim(held, effect)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed effects: {exc!r}") from exc


def _apply_effects(broker: "Broker", effects: list[dict[str, Any]], whole: bool = False) -> None:
    """The one place value moves on a shard — and, outside snapshot
    restore, the only place ``total_opened`` is adjusted: by the sum of the
    applied deltas, which for a ``whole`` operation must be zero (checked
    before anything is touched: neither a handler bug nor a tampered
    journal may mint or burn value through a ``move``)."""
    moved = sum(EFFECTS[effect["effect"]].sign * effect["amount"] for effect in effects)
    if whole and moved:
        raise MutationRefused("a whole operation's effects must cancel")
    for effect in effects:
        EFFECTS[effect["effect"]].apply(broker, effect)
    broker.total_opened += moved


# -- record appliers ----------------------------------------------------------


def _apply_broker_init(broker: "Broker", mut: dict[str, Any]) -> None:
    broker.keypair = KeyPair.from_secret(broker.params, mut["signing_x"])


def _apply_open_account(broker: "Broker", mut: dict[str, Any]) -> None:
    _apply_effects(broker, mut["effects"])


def _apply_move(broker: "Broker", mut: dict[str, Any]) -> None:
    _apply_effects(broker, mut["effects"], whole=True)


def _apply_downtime_binding(broker: "Broker", mut: dict[str, Any]) -> None:
    binding = CoinBinding(
        signed=decode_signed(mut["binding"], broker.params), via_broker=True
    )
    broker.downtime_bindings[mut["coin_y"]] = binding
    if mut["owner"] is not None:
        broker.pending_sync.setdefault(mut["owner"], set()).add(mut["coin_y"])


def _apply_sync_consumed(broker: "Broker", mut: dict[str, Any]) -> None:
    broker.pending_sync.pop(mut["owner"], None)


def _apply_handoff_begin(broker: "Broker", mut: dict[str, Any]) -> None:
    broker.pending_handoffs[mut["h"]] = mut


def _apply_handoff_abort(broker: "Broker", mut: dict[str, Any]) -> None:
    broker.pending_handoffs.pop(mut["h"], None)


def _apply_handoff_commit(broker: "Broker", mut: dict[str, Any]) -> None:
    record = broker.pending_handoffs.pop(mut["h"], None)
    # ``None``: a re-applied commit (retry after the original became
    # durable but the replay cache was refilled oddly) — nothing left to do.
    if record is not None:
        _apply_effects(broker, record["effects"])


def _apply_xshard(broker: "Broker", mut: dict[str, Any]) -> None:
    if mut["h"] not in broker.handoffs_seen:
        broker.handoffs_seen.add(mut["h"])
        _apply_effects(broker, mut["effects"])


_APPLIERS: dict[str, Callable[["Broker", dict[str, Any]], None]] = {
    "broker_init": _apply_broker_init,
    "open_account": _apply_open_account,
    "move": _apply_move,
    "downtime_binding": _apply_downtime_binding,
    "sync_consumed": _apply_sync_consumed,
    "handoff_begin": _apply_handoff_begin,
    "handoff_commit": _apply_handoff_commit,
    "handoff_abort": _apply_handoff_abort,
    "xshard_apply": _apply_xshard,
}


def apply_broker(broker: "Broker", mut: dict[str, Any]) -> None:
    """Apply one mutation record to ``broker`` (live path and replay)."""
    try:
        applier = _APPLIERS[mut["type"]]
    except KeyError:
        raise MutationRefused(f"no applier for mutation type {mut.get('type')!r}") from None
    applier(broker, mut)


def verifiable_signatures(broker: "Broker", mut: dict[str, Any]) -> list[Triple]:
    """DSA (signer, payload, signature) triples a record's effects carry.

    Recovery batch-verifies these after replay — a journal tampered with
    between crash and restart must not smuggle unsigned coins or bindings
    into the rebuilt broker — and the prepare handler verifies them on
    effects from another shard.  A ``handoff_begin`` carries every artefact
    its later commit (just an ``h`` pointer) applies.
    """
    triples: list[Triple] = []
    for effect in mut.get("effects", ()):
        signed = EFFECTS[effect["effect"]].signed
        if signed is not None:
            triples.extend(signed(broker, effect))
    if mut.get("type") == "downtime_binding":
        triples.append(decode_signed(mut["binding"], broker.params).triple)
    return triples
