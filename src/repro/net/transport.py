"""The instrumented in-memory transport with deterministic fault injection.

Synchronous request/response delivery between registered nodes, with:

* per-entity message and byte counters (sent and received) — the
  communication-cost measurements of Figures 7/9/11 come from counters with
  exactly this shape;
* an online/offline gate per node, so protocol code experiences peer churn
  the same way it would over a real network (requests to offline peers fail
  with :class:`NodeOffline`);
* optional per-hop latency accounting against a virtual clock (the
  transport does not sleep; it accumulates what *would* have been waited);
* a schedulable, seeded fault injector (:class:`FaultPlan`) covering the
  failure modes a real deployment sees: request loss, reply loss,
  crash-after-handler (the destination applied the operation but the reply
  never made it back), duplicate delivery, latency jitter, and per-link
  partition windows measured against the virtual clock.

Delivery is a direct function call into the destination node's handler, so
tests are deterministic and stack traces span the whole protocol exchange.
Every fault decision comes from one seeded RNG inside the installed
:class:`FaultPlan`, so a fault schedule replays bit-identically for a
given seed — chaos tests rely on this to diff whole-ledger outcomes.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from repro.messages.codec import encode
from repro.store.crashpoints import SimulatedCrash

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.clock import Clock
    from repro.net.node import Node


class NetworkError(Exception):
    """Base class for transport-level failures."""


class UnknownNode(NetworkError):
    """The destination address is not registered."""


class NodeOffline(NetworkError):
    """The destination node exists but is currently offline."""


class MessageDropped(NetworkError):
    """The fault injector dropped the request before delivery."""


class ReplyLost(NetworkError):
    """The handler ran but the reply was lost (crash-after-handler or
    reply dropped in transit).  The caller cannot tell whether the
    operation was applied — exactly the ambiguity idempotency keys and
    the replay cache exist to resolve."""


class LinkPartitioned(NetworkError):
    """A partition window currently severs the src↔dst link."""


@dataclass
class TrafficCounter:
    """Messages/bytes sent and received by one entity."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0


# -- fault plan ---------------------------------------------------------------


@dataclass(frozen=True)
class Partition:
    """A symmetric link cut between ``a`` and ``b`` during [start, end).

    Either endpoint may be the wildcard ``"*"`` — ``Partition("broker", "*")``
    isolates the broker from everyone.  Times are virtual-clock seconds; with
    no clock attached to the transport, "now" is 0.0, so a window starting at
    0 is simply always active.
    """

    a: str
    b: str
    start: float = 0.0
    end: float = math.inf

    def blocks(self, src: str, dst: str, now: float) -> bool:
        """True iff this partition severs src→dst at virtual time ``now``."""
        if not (self.start <= now < self.end):
            return False

        def matches(addr: str, pattern: str) -> bool:
            return pattern == "*" or pattern == addr

        return (matches(src, self.a) and matches(dst, self.b)) or (
            matches(src, self.b) and matches(dst, self.a)
        )


@dataclass
class FaultStats:
    """What actually fired while a :class:`FaultPlan` was installed."""

    requests_dropped: int = 0
    replies_dropped: int = 0
    crash_after_handler: int = 0
    duplicates_delivered: int = 0
    partition_blocks: int = 0
    jitter_accrued: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view (chaos tests diff these across replayed runs)."""
        return asdict(self)


class FaultPlan:
    """A seeded, schedulable description of what the network does wrong.

    All probabilistic dimensions draw from the single ``rng`` seeded at
    construction, so the complete fault schedule is a pure function of
    (seed, request sequence) and replays deterministically.

    Dimensions:

    * ``request_loss`` — the request vanishes before the handler runs
      (sender pays for the send; nothing was applied);
    * ``response_loss`` — the handler ran and replied, the reply vanished
      (both sides pay for the request, the destination pays for the reply);
    * ``crash_after_handler`` — the destination applied the operation and
      crashed before serializing a reply (no reply bytes exist at all);
    * ``duplicate_rate`` — the network delivers the request a second time
      after the first completes (models at-least-once delivery);
    * ``latency_jitter`` — adds Uniform[0, jitter) virtual seconds per
      delivered message on top of the transport's fixed per-hop latency;
    * ``partitions`` — scheduled link cuts (see :class:`Partition`).

    ``scripted_request_drops`` / ``scripted_reply_drops`` are deterministic
    one-shot budgets consumed *before* any random draw — regression tests
    use them to force "this exact reply is lost" without tuning seeds.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        request_loss: float = 0.0,
        response_loss: float = 0.0,
        duplicate_rate: float = 0.0,
        crash_after_handler: float = 0.0,
        latency_jitter: float = 0.0,
    ) -> None:
        for name, rate in (
            ("request_loss", request_loss),
            ("response_loss", response_loss),
            ("duplicate_rate", duplicate_rate),
            ("crash_after_handler", crash_after_handler),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if latency_jitter < 0.0:
            raise ValueError("latency_jitter must be >= 0")
        self.seed = seed
        self.rng = random.Random(seed)
        self.request_loss = request_loss
        self.response_loss = response_loss
        self.duplicate_rate = duplicate_rate
        self.crash_after_handler = crash_after_handler
        self.latency_jitter = latency_jitter
        self.partitions: list[Partition] = []
        self.scripted_request_drops = 0
        self.scripted_reply_drops = 0
        self.stats = FaultStats()

    def partition(self, a: str, b: str, start: float = 0.0, end: float = math.inf) -> "FaultPlan":
        """Schedule a link cut (returns self for chaining)."""
        self.partitions.append(Partition(a=a, b=b, start=start, end=end))
        return self

    def is_partitioned(self, src: str, dst: str, now: float) -> bool:
        """True iff any scheduled partition currently severs src↔dst."""
        return any(p.blocks(src, dst, now) for p in self.partitions)

    # Drawing helpers: each dimension draws from the shared RNG only when
    # its rate is non-zero, so RNG consumption — and therefore the whole
    # schedule — depends only on the plan's configuration and the request
    # sequence, never on which dimensions happen to fire.

    def _fires(self, rate: float) -> bool:
        return rate > 0.0 and self.rng.random() < rate

    def take_request_drop(self) -> bool:
        """Should this request be lost? (scripted drops consumed first)"""
        if self.scripted_request_drops > 0:
            self.scripted_request_drops -= 1
            return True
        return self._fires(self.request_loss)

    def take_reply_drop(self) -> bool:
        """Should this reply be lost in transit? (scripted drops first)"""
        if self.scripted_reply_drops > 0:
            self.scripted_reply_drops -= 1
            return True
        return self._fires(self.response_loss)

    def take_duplicate(self) -> bool:
        """Should this request be delivered a second time?"""
        return self._fires(self.duplicate_rate)

    def take_crash(self) -> bool:
        """Should the destination crash after running the handler?"""
        return self._fires(self.crash_after_handler)

    def take_jitter(self) -> float:
        """Extra virtual latency for one delivered message."""
        if self.latency_jitter <= 0.0:
            return 0.0
        return self.rng.random() * self.latency_jitter


class Transport:
    """The shared in-memory fabric all nodes attach to.

    ``clock`` (optional) is the simulation's virtual clock; partitions are
    scheduled against it and jitter accrues to ``virtual_latency_accrued``
    without advancing it (advancing would age coins).
    """

    def __init__(self, per_hop_latency: float = 0.0) -> None:
        self._nodes: dict[str, "Node"] = {}
        self.counters: dict[str, TrafficCounter] = defaultdict(TrafficCounter)
        self.per_hop_latency = per_hop_latency
        self.virtual_latency_accrued = 0.0
        self.total_messages = 0
        self.messages_dropped = 0
        self.faults: FaultPlan | None = None
        self.clock: "Clock | None" = None
        # Crash supervision: when a node's handler dies with SimulatedCrash
        # (a storage crash point fired), the node is taken offline and the
        # registered handler — typically a harness restart/recovery hook —
        # runs before the sender sees ReplyLost.
        self.crash_handlers: dict[str, Callable[[SimulatedCrash], None]] = {}
        self.crashes_simulated = 0

    # -- fault injection ------------------------------------------------------

    def install_faults(self, plan: FaultPlan | None) -> None:
        """Install (or, with ``None``, remove) the active fault plan."""
        self.faults = plan

    def set_crash_handler(self, address: str, handler: Callable[[SimulatedCrash], None] | None) -> None:
        """Register (or, with ``None``, remove) a crash supervisor for ``address``.

        The handler runs synchronously after the crashed node is marked
        offline and before the in-flight sender sees :class:`ReplyLost` —
        so a supervisor that restarts the node lets the sender's *retry*
        (same idempotency key) reach the recovered instance.
        """
        if handler is None:
            self.crash_handlers.pop(address, None)
        else:
            self.crash_handlers[address] = handler

    def _node_crashed(self, node: "Node", crash: SimulatedCrash) -> None:
        node.online = False
        self.crashes_simulated += 1
        handler = self.crash_handlers.get(node.address)
        if handler is not None:
            handler(crash)

    # -- registration ------------------------------------------------------

    def register(self, node: "Node") -> None:
        """Attach ``node``; its address must be unique on this transport."""
        if node.address in self._nodes:
            raise ValueError(f"duplicate node address {node.address!r}")
        self._nodes[node.address] = node

    def unregister(self, address: str) -> None:
        """Detach the node at ``address`` (no-op if absent)."""
        self._nodes.pop(address, None)

    def node(self, address: str) -> "Node":
        """Look up a node by address."""
        try:
            return self._nodes[address]
        except KeyError:
            raise UnknownNode(address) from None

    def addresses(self) -> list[str]:
        """All registered addresses (stable order of registration)."""
        return list(self._nodes)

    def is_online(self, address: str) -> bool:
        """True iff ``address`` is registered and its node is online."""
        node = self._nodes.get(address)
        return node is not None and node.online

    # -- messaging ---------------------------------------------------------

    def request(self, src: str, dst: str, kind: str, payload: Any) -> Any:
        """Send a request from ``src`` to ``dst`` and return the response.

        ``payload`` must be codec-encodable (its size is what the byte
        counters record).  Raises :class:`UnknownNode` / :class:`NodeOffline`
        on addressing failures; handler exceptions propagate to the caller,
        mirroring an application-level error response.  With a fault plan
        installed, may also raise :class:`LinkPartitioned`,
        :class:`MessageDropped` (handler did not run) or :class:`ReplyLost`
        (handler *did* run; the caller cannot know).
        """
        node = self.node(dst)
        if not node.online:
            raise NodeOffline(dst)
        plan = self.faults
        if plan is not None:
            now = self.clock.now() if self.clock is not None else 0.0
            if plan.is_partitioned(src, dst, now):
                plan.stats.partition_blocks += 1
                raise LinkPartitioned(f"{src} -x- {dst} ({kind})")
            if plan.take_request_drop():
                # The sender still paid to transmit; nobody received.
                self.messages_dropped += 1
                plan.stats.requests_dropped += 1
                self._account_send_only(src, payload)
                raise MessageDropped(f"{src} -> {dst} ({kind})")
        self._account(src, dst, payload, plan)
        try:
            response = node.handle(kind, src, payload)
        except SimulatedCrash as crash:
            # A storage crash point fired inside the handler: the node is
            # down, no reply bytes exist.  The sender sees the same
            # ambiguity as crash-after-handler — retryable via idempotency.
            self.messages_dropped += 1
            self._node_crashed(node, crash)
            raise ReplyLost(
                f"{dst} crashed at storage point {crash.site!r} handling {kind} from {src}"
            ) from crash
        if plan is not None:
            if plan.take_duplicate():
                # At-least-once delivery: the same request arrives again
                # after the first completed.  The replay cache (if the
                # payload is idempotency-keyed) makes the re-dispatch a
                # cache hit; raw traffic sees the handler run twice.
                plan.stats.duplicates_delivered += 1
                self._account(src, dst, payload, plan)
                try:
                    node.handle(kind, src, payload)
                except SimulatedCrash as crash:
                    # Even an invisible duplicate can hit a crash point —
                    # the node still goes down and the supervisor still runs.
                    self._node_crashed(node, crash)
                except Exception:
                    # The duplicate's outcome is invisible to the sender.
                    pass
            if plan.take_crash():
                # Handler committed, destination crashed pre-reply: no
                # reply bytes ever existed.
                self.messages_dropped += 1
                plan.stats.crash_after_handler += 1
                raise ReplyLost(f"{dst} crashed after handling {kind} from {src}")
            if plan.take_reply_drop():
                # Reply serialized and sent, lost in transit.
                self.messages_dropped += 1
                plan.stats.replies_dropped += 1
                self._account_send_only(dst, response)
                raise ReplyLost(f"{dst} -> {src} reply lost ({kind})")
        self._account(dst, src, response, plan)
        return response

    def _account(self, sender: str, receiver: str, payload: Any, plan: FaultPlan | None = None) -> None:
        size = len(encode(self._measurable(payload)))
        self.counters[sender].messages_sent += 1
        self.counters[sender].bytes_sent += size
        self.counters[receiver].messages_received += 1
        self.counters[receiver].bytes_received += size
        self.total_messages += 1
        self.virtual_latency_accrued += self.per_hop_latency
        if plan is not None:
            jitter = plan.take_jitter()
            if jitter:
                plan.stats.jitter_accrued += jitter
                self.virtual_latency_accrued += jitter

    def _account_send_only(self, sender: str, payload: Any) -> None:
        """Account a message that left the sender but was never received."""
        size = len(encode(self._measurable(payload)))
        self.counters[sender].messages_sent += 1
        self.counters[sender].bytes_sent += size
        self.total_messages += 1
        self.virtual_latency_accrued += self.per_hop_latency

    @staticmethod
    def _measurable(payload: Any) -> Any:
        """Reduce a payload to something the codec can size.

        Protocol objects expose ``encode()``; plain codec values pass
        through; anything else is sized by its repr (never happens for real
        protocol traffic, but keeps the counters total).
        """
        if payload is None or isinstance(payload, (int, str, bytes, bool)):
            return payload
        if hasattr(payload, "encode") and callable(payload.encode):
            encoded = payload.encode()
            if isinstance(encoded, bytes):
                return encoded
        if isinstance(payload, (list, tuple)):
            return [Transport._measurable(item) for item in payload]
        if isinstance(payload, dict):
            return {k: Transport._measurable(v) for k, v in payload.items()}
        return repr(payload)

    # -- metrics -----------------------------------------------------------

    def counter(self, address: str) -> TrafficCounter:
        """The traffic counter for ``address`` (created on first use)."""
        return self.counters[address]

    def reset_counters(self) -> None:
        """Zero all counters (between experiment phases)."""
        self.counters.clear()
        self.total_messages = 0
        self.messages_dropped = 0
        self.virtual_latency_accrued = 0.0
