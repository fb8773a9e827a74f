"""Fault-tolerant RPC on top of the raw transport.

Three pieces:

* :class:`RetryPolicy` — bounded exponential backoff with jitter;
* :class:`RpcClient` — issues a request under a policy, retrying the
  transient transport failures (:class:`MessageDropped`,
  :class:`ReplyLost`, :class:`LinkPartitioned`) and tagging retried calls
  with an idempotency key so the destination can deduplicate;
* :class:`ReplayCache` — the bounded, LRU-evicting dedupe table a
  :class:`~repro.net.node.Node` consults before dispatching an
  idempotency-keyed request.

The at-most-once/at-least-once ambiguity this resolves: when a reply is
lost the caller cannot know whether the handler ran.  Retrying with the
same idempotency key turns the exchange into exactly-once *in ledger
effects* — the first successful execution is cached and every retry (or
network duplicate) of the same key is answered from the cache without
re-running the handler.

Wire format: a retried call wraps its payload as
``{"__rpc__": 1, "idem": key, "body": payload}``.  Single-attempt policies
(the default everywhere) send the payload untouched, so default traffic is
byte-identical to the pre-RPC wire format.

Backoff never sleeps and never advances the shared :class:`Clock` (that
would age coins toward expiry); waits accrue to the transport's
``virtual_latency_accrued``, the same place per-hop latency goes.
"""

from __future__ import annotations

import random
import secrets
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from repro.net.transport import (
    LinkPartitioned,
    MessageDropped,
    NetworkError,
    ReplyLost,
    Transport,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

#: Transport failures where retrying can help: the network lost something.
#: ``NodeOffline`` is deliberately excluded — churn is a protocol-visible
#: condition (the downtime protocol exists for it), not a transient fault.
RETRYABLE_ERRORS = (MessageDropped, ReplyLost, LinkPartitioned)

_ENVELOPE_TAG = "__rpc__"


class RpcError(NetworkError):
    """Base class for RPC-layer failures (a kind of network failure)."""

    def __init__(self, message: str, attempts: int = 0, last_error: Exception | None = None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error


class RetriesExhausted(RpcError):
    """Every attempt allowed by the policy failed with a retryable error."""


class RpcTimeout(RpcError):
    """The call's virtual-time budget ran out before the next retry."""


@dataclass(frozen=True)
class RetryPolicy:
    """How persistently one call fights the network.

    ``max_attempts=1`` (the default) means no retries at all — raw
    transport semantics, raw wire format.  Backoff before attempt *n+1* is
    ``min(base_delay * multiplier**(n-1), max_delay)`` stretched by up to
    ``jitter`` (a fraction, drawn uniformly), accrued as virtual latency.
    The time budget is per call (:meth:`RpcClient.call`'s ``deadline``).
    """

    max_attempts: int = 1
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise ValueError("delays and jitter must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Virtual seconds to wait after failed attempt ``attempt`` (1-based)."""
        delay = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        return delay * (1.0 + self.jitter * rng.random())


#: Raw transport semantics: one attempt, unwrapped payloads.
DEFAULT_POLICY = RetryPolicy()

#: A reasonable chaos-survival policy: six attempts, capped backoff.
RESILIENT_POLICY = RetryPolicy(max_attempts=6, base_delay=0.05, multiplier=2.0, max_delay=1.0)


def new_idempotency_key() -> str:
    """A fresh, unguessable idempotency key (one per logical operation)."""
    return secrets.token_hex(8)


def wrap_idempotent(payload: Any, key: str) -> dict[str, Any]:
    """The wire envelope for an idempotency-keyed request."""
    return {_ENVELOPE_TAG: 1, "idem": key, "body": payload}


def unwrap_idempotent(payload: Any) -> tuple[str | None, Any]:
    """``(key, body)`` if ``payload`` is a keyed envelope, else ``(None, payload)``."""
    if isinstance(payload, dict) and payload.get(_ENVELOPE_TAG) == 1 and "idem" in payload:
        return payload["idem"], payload.get("body")
    return None, payload


class ReplayCache:
    """Bounded LRU map from (kind, idempotency key) to a cached result.

    Only *successful* results are stored: a handler exception leaves no
    entry, so a retry after an application-level failure re-runs the
    handler cleanly.  Eviction is LRU with a hard capacity bound — the
    cache cannot grow without limit under sustained traffic, at the cost
    that a retry arriving after ``capacity`` newer operations re-executes
    (acceptable: retries are near-in-time by construction).
    """

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._entries: OrderedDict[tuple[str, str], Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple[str, str]) -> tuple[bool, Any]:
        """``(True, cached_result)`` on a hit, ``(False, None)`` otherwise."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def store(self, key: tuple[str, str], value: Any) -> None:
        """Record a successful result, evicting the oldest entry if full."""
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def snapshot_entries(self) -> list[tuple[tuple[str, str], Any]]:
        """Entries oldest-first, for durable snapshots of dedupe state."""
        return list(self._entries.items())


@dataclass
class RpcStats:
    """Per-client telemetry (chaos tests assert retries actually happened)."""

    calls: int = 0
    retries: int = 0
    recovered: int = 0  # calls that succeeded only after >= 1 retry
    exhausted: int = 0
    deadline_exceeded: int = 0  # calls that raised RpcTimeout
    backoff_accrued: float = 0.0


class RpcClient:
    """Issues requests under a retry policy.

    Two binding modes:

    * **node-bound** (``RpcClient(node=peer)``): sends via the node's
      ``send_raw`` hook, looked up dynamically per attempt so overlays
      (onion routing) that replace ``send_raw`` capture retries too;
    * **transport-bound** (``RpcClient(transport=t)``): for client-side
      infrastructure that is not itself a node (DHT rings, the
      notification hub); each call names its ``src`` explicitly.

    The backoff RNG is seeded from the node address (or the given seed),
    so retry schedules are deterministic per endpoint.
    """

    def __init__(
        self,
        node: "Node | None" = None,
        transport: Transport | None = None,
        policy: RetryPolicy | None = None,
        seed: int | None = None,
    ) -> None:
        if (node is None) == (transport is None):
            raise ValueError("bind an RpcClient to exactly one of node= or transport=")
        self._node = node
        self._transport = transport if transport is not None else node.transport
        self.policy = policy if policy is not None else DEFAULT_POLICY
        if seed is None:
            ident = node.address if node is not None else "rpc-client"
            seed = zlib.crc32(ident.encode())
        self.rng = random.Random(seed)
        self.stats = RpcStats()

    def _send(self, dst: str, kind: str, payload: Any, src: str | None) -> Any:
        if self._node is not None:
            return self._node.send_raw(dst, kind, payload)
        return self._transport.request(src if src is not None else "rpc-client", dst, kind, payload)

    def call(
        self,
        dst: str,
        kind: str,
        payload: Any,
        *,
        src: str | None = None,
        idempotency_key: str | None = None,
        policy: RetryPolicy | None = None,
        deadline: float | None = None,
    ) -> Any:
        """Send ``payload`` to ``dst`` as ``kind``, retrying per policy.

        The idempotency envelope is applied only when the effective policy
        actually retries — single-attempt traffic keeps the raw wire format.

        ``deadline`` is the call's total *virtual-time* budget, covering
        backoff **and** every virtual second the transport
        accrues on the call's behalf (per-hop latency, fault-plan jitter,
        nested RPC work inside the handler).  Backoff is clamped so it
        never exceeds the remaining budget, and a reply that lands after
        the budget is spent raises :class:`RpcTimeout` instead of silently
        succeeding late — the caller asked for an answer *in time*, not an
        answer eventually.  ``None`` (the default) means unbounded.
        """
        active = policy if policy is not None else self.policy
        wire = payload
        if idempotency_key is not None and active.max_attempts > 1:
            wire = wrap_idempotent(payload, idempotency_key)
        self.stats.calls += 1
        latency_start = self._transport.virtual_latency_accrued
        last: Exception | None = None

        def consumed() -> float:
            return self._transport.virtual_latency_accrued - latency_start

        def deadline_exceeded(attempt: int, detail: str) -> RpcTimeout:
            self.stats.deadline_exceeded += 1
            return RpcTimeout(
                f"{kind} to {dst}: deadline {deadline}s exceeded {detail} "
                f"after {attempt} attempt(s)",
                attempts=attempt,
                last_error=last,
            )

        for attempt in range(1, active.max_attempts + 1):
            try:
                result = self._send(dst, kind, wire, src)
            except RETRYABLE_ERRORS as exc:
                last = exc
            else:
                if deadline is not None and consumed() > deadline:
                    # The handler ran, but the reply is too late to use:
                    # jitter/latency spent the budget (idempotency keys make
                    # a later retry of the same operation safe).
                    raise deadline_exceeded(attempt, "(reply arrived late)") from last
                if attempt > 1:
                    self.stats.recovered += 1
                return result
            if attempt == active.max_attempts:
                break
            delay = active.backoff(attempt, self.rng)
            if deadline is not None:
                remaining = deadline - consumed()
                if remaining <= 0.0:
                    raise deadline_exceeded(attempt, "(no budget left to retry)") from last
                # Budget propagation: never back off past the deadline.
                delay = min(delay, remaining)
            self.stats.retries += 1
            self.stats.backoff_accrued += delay
            # Accrue, never sleep: the transport tracks what a real client
            # would have waited, without aging the protocol clock.
            self._transport.virtual_latency_accrued += delay
        assert last is not None
        if active.max_attempts == 1:
            # Single-attempt callers asked for raw transport semantics;
            # hand them the raw transport error.
            raise last
        self.stats.exhausted += 1
        raise RetriesExhausted(
            f"{kind} to {dst}: all {active.max_attempts} attempts failed "
            f"({type(last).__name__}: {last})",
            attempts=active.max_attempts,
            last_error=last,
        ) from last
