"""Exception taxonomy for the WhoPay protocols.

Every protocol failure maps to a subclass of :class:`ProtocolError` so
callers can distinguish "your request was malformed" from "fraud was just
detected" — the latter carries the evidence needed for adjudication.
"""

from __future__ import annotations

from typing import Any

from repro.net.transport import NetworkError


class ProtocolError(Exception):
    """Base class for all WhoPay protocol failures."""


class VerificationFailed(ProtocolError):
    """A signature, proof, or certificate failed to verify."""


class NotHolder(ProtocolError):
    """The requester could not prove holdership of the coin."""


class NotOwner(ProtocolError):
    """The contacted party is not (or could not prove being) the coin owner."""


class CoinExpired(ProtocolError):
    """The coin's expiration date has passed without renewal."""


class UnknownCoin(ProtocolError):
    """The coin is not in the relevant registry (broker list, owner list…)."""


class InsufficientFunds(ProtocolError):
    """The account cannot cover the requested purchase."""


class HandoffPending(ProtocolError):
    """The coin is reserved by a cross-shard operation still in flight.

    Not fraud: an honest retry that re-signed its request (and so opened a
    new handoff) meets the reservation of its own earlier attempt.  The
    earlier attempt settles on re-drive; retry after it has.
    """


class FraudDetected(ProtocolError):
    """Fraud was detected; carries the evidence for the judge.

    ``evidence`` is a dict of named artifacts (conflicting bindings, deposit
    requests, group signatures) that :mod:`repro.core.audit` and the judge
    consume to attribute blame.
    """

    def __init__(self, message: str, evidence: dict[str, Any] | None = None) -> None:
        super().__init__(message)
        self.evidence = evidence or {}


class DoubleSpendDetected(FraudDetected):
    """The same coin was spent (or deposited) twice."""


class ServiceUnavailable(ProtocolError, NetworkError):
    """An operation gave up after exhausting its retry/timeout budget.

    Raised by the typed endpoint facades (:mod:`repro.core.clients`) when
    the RPC layer reports :class:`~repro.net.rpc.RetriesExhausted` or
    :class:`~repro.net.rpc.RpcTimeout`.  Subclasses *both* hierarchies on
    purpose: it is a protocol-visible availability failure (``Peer.pay``
    treats it as "fall through to the next payment method") and a network
    failure (callers that already handle :class:`NetworkError` keep
    working unchanged).

    ``attempts`` is how many sends were made; ``last_error`` the final
    transport failure observed.
    """

    def __init__(self, message: str, attempts: int = 0, last_error: Exception | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error
