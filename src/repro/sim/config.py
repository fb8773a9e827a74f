"""Simulation configurations (paper Table 1).

Two experiment families:

* **Setup A** — 1000 peers; exponential online sessions with mean µ swept
  from 15 minutes to 32 hours; exponential offline sessions with mean
  ν ∈ {1 h, 2 h, 4 h} (short / median / long downtime); policies I–III ×
  {proactive, lazy} synchronization.  The paper reports the median-downtime
  (ν = 2 h) results, as do our figure benches.
* **Setup B** — system size swept from 100 to 1000 peers at µ = ν = 2 h
  (50% availability).

Every peer generates candidate payments as an independent Poisson process
at 1 per 5 minutes with a uniformly random payee; a candidate becomes an
actual payment iff the payee is online (Section 6.1's thinning — note the
paper thins on the payee's availability only, which is why the actual
per-peer payment rate is α per 5 minutes; we follow that literally).
Renewal period: 3 days.  Run length: 10 simulated days.

Paper-scale runs are expensive in pure Python, so each preset family has a
``small`` variant that keeps every *ratio* the paper's analysis depends on
(duration/renewal-period, session lengths, payment rate) while shrinking the
peer count and horizon; benches use the small variants unless
``WHOPAY_FULL=1`` is set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.clock import DAY, HOUR
from repro.sim.policies import POLICY_I, Policy

MINUTE = 60.0

#: Paper Table 1 µ sweep (15 minutes to 32 hours).
FULL_MU_SWEEP_HOURS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Reduced sweep used by the small presets (same span, fewer points).
SMALL_MU_SWEEP_HOURS = (0.25, 1.0, 2.0, 4.0, 8.0, 32.0)

#: Paper Table 1 Setup B size sweep.
FULL_SIZE_SWEEP = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)

#: Reduced size sweep for the small presets.
SMALL_SIZE_SWEEP = (50, 100, 150, 200, 250)


@dataclass(frozen=True)
class SimConfig:
    """One simulation run's parameters."""

    n_peers: int = 1000
    duration: float = 10 * DAY
    mean_online: float = 2 * HOUR  # µ
    mean_offline: float = 2 * HOUR  # ν
    payment_interval: float = 5 * MINUTE  # candidate Poisson mean gap
    renewal_period: float = 3 * DAY
    policy: Policy = POLICY_I
    sync_mode: str = "proactive"  # or "lazy"
    #: ``None`` = unlimited funds, the paper's implicit model (its purchase
    #: counts grow with availability, and no deposit series appears in any
    #: figure, which is only consistent with purchases never being gated).
    #: A finite balance enables the budget economy: purchases debit, deposits
    #: credit, and policy III's deposit-recycling step actually fires — used
    #: by the ablation benches.
    initial_balance: int | None = None
    coin_value: int = 1
    #: Whether a candidate payment additionally requires the *payer* to be
    #: online.  The paper's text thins candidates by payee availability only
    #: ("the actual payment events form an independent Poisson process
    #: with rate α per 5 minutes"), but its figure shapes — purchases rising
    #: across the whole sweep, downtime transfers/renewals peaking *inside*
    #: the sweep — match the payer-gated model, and an offline payer making
    #: payments is physically odd anyway.  Default True; set False for the
    #: literal-text model (the ablation suite compares both).
    require_payer_online: bool = True
    #: Peer population model.  ``"uniform"`` is the paper's simulation
    #: (identical availability, uniformly random payees) — the model whose
    #: broker load grew linearly, to the authors' surprise.  ``"powerlaw"``
    #: implements their Section 6.2 conjecture: Zipf-distributed activity
    #: weights, payee selection proportional to activity ("peers are more
    #: willing to do business with such super peers"), and availability
    #: rising with activity ("we can expect these peers to … be highly
    #: reliable").  The super-peer ablation bench measures whether the
    #: conjectured sublinear broker load materializes.
    heterogeneity: str = "uniform"
    #: Zipf exponent for the power-law activity weights.
    zipf_exponent: float = 1.0
    #: Availability ceiling reached by the most active peer under
    #: ``"powerlaw"`` (the base availability µ/(µ+ν) is the floor).
    superpeer_max_availability: float = 0.98
    #: Layer cap for the Section 7 layered-coin offline-transfer fallback
    #: ("a maximum number of layers can be imposed"); only consulted by
    #: policies that include the LAYERED_OFFLINE method.
    max_layers: int = 16
    #: Record per-peer served-work and initiated-payment counters (the load
    #: *distribution* behind Figures 4/5's averages).  Off by default — it
    #: adds two Counter updates per operation.
    track_per_peer: bool = False
    #: Per-attempt message loss probability on every link.  The event-level
    #: simulator does not replay individual retransmissions; instead the
    #: expected-attempt factor (:func:`repro.sim.costs.expected_attempts`)
    #: scales communication load, matching the fault-injecting transport's
    #: retry behaviour in expectation.
    message_loss: float = 0.0
    #: Retry budget assumed for the comm-load overhead (mirrors the RPC
    #: layer's resilient policy).
    rpc_max_attempts: int = 6
    #: Model the Section 5.1 real-time detection overhead: every binding
    #: update (issue/transfer/renewal, downtime included) costs one DHT
    #: publish, and every payment acceptance costs one DHT read (the
    #: payee's verify-before-accept).  Off by default — the paper's figures
    #: evaluate the base protocol.
    detection: bool = False
    #: Number of broker crash/restart events to model, spread evenly over the
    #: run (event i of n fires at ``duration * i / (n + 1)``).  Each restart
    #: replays the write-ahead journal accumulated since the last snapshot —
    #: the post-recovery compaction snapshot resets that backlog — and the
    #: replay's signature re-verification is charged to broker CPU load
    #: (:data:`repro.sim.costs.REPLAY_RECORD_COST` per journal record).
    #: 0 (the default) models an uninterrupted broker and leaves every load
    #: figure exactly as before.
    broker_restarts: int = 0
    seed: int = 20060704  # ICDCS 2006 vintage

    def __post_init__(self) -> None:
        if self.sync_mode not in ("proactive", "lazy"):
            raise ValueError("sync_mode must be 'proactive' or 'lazy'")
        if self.heterogeneity not in ("uniform", "powerlaw"):
            raise ValueError("heterogeneity must be 'uniform' or 'powerlaw'")
        if not 0.0 < self.superpeer_max_availability < 1.0:
            raise ValueError("superpeer_max_availability must be in (0, 1)")
        if self.n_peers < 2:
            raise ValueError("need at least two peers to make payments")
        for name in ("duration", "mean_online", "mean_offline", "payment_interval", "renewal_period"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.message_loss < 1.0:
            raise ValueError("message_loss must be in [0, 1)")
        if self.rpc_max_attempts < 1:
            raise ValueError("rpc_max_attempts must be >= 1")
        if self.broker_restarts < 0:
            raise ValueError("broker_restarts must be >= 0")

    @property
    def availability(self) -> float:
        """α = µ / (µ + ν), the paper's availability indicator."""
        return self.mean_online / (self.mean_online + self.mean_offline)

    def describe(self) -> str:
        """Short human-readable label for tables."""
        return (
            f"N={self.n_peers} µ={self.mean_online / HOUR:g}h ν={self.mean_offline / HOUR:g}h "
            f"policy={self.policy.name} sync={self.sync_mode}"
        )


def expected_event_count(config: SimConfig) -> float:
    """Rough expected number of simulation events for ``config``.

    Candidate payments arrive at an aggregate rate of ``n_peers`` per
    ``payment_interval`` (exactly, in both population models — the power-law
    intervals are normalized to preserve the aggregate rate), and each peer
    toggles at rate ``2 / (µ + ν)``.  Renewals and restarts are a small
    correction and are covered by the initial-event term.  Used to pick
    event-budgeted horizons (:func:`event_budgeted`).
    """
    n = config.n_peers
    candidates = config.duration * n / config.payment_interval
    toggles = config.duration * 2.0 * n / (config.mean_online + config.mean_offline)
    return candidates + toggles + n


def event_budgeted(config: SimConfig, event_budget: float) -> SimConfig:
    """``config`` with its horizon shrunk so the expected event count is ``event_budget``.

    Beyond paper scale a fixed-duration run grows the event count linearly
    with ``n_peers`` (10 days at N=10^6 is ~3×10^9 candidate events), so
    the scaling benchmarks fix an *event budget* instead: the expected event
    count stays constant across sizes and the per-event cost is what varies.
    The horizon never drops below ten minutes nor grows past ``config``'s,
    and the renewal period shrinks with it (keeping the duration/renewal
    ratio) so renewal traffic stays represented.
    """
    per_time = expected_event_count(config) / config.duration
    duration = max(event_budget / per_time, 10 * MINUTE)
    if duration >= config.duration:
        return config
    return replace(
        config,
        duration=duration,
        renewal_period=duration * (config.renewal_period / config.duration),
    )


def setup_b_point(
    n_peers: int,
    policy: Policy = POLICY_I,
    sync_mode: str = "proactive",
    event_budget: float | None = None,
) -> SimConfig:
    """One Setup-B-shaped point (µ = ν = 2 h) at an arbitrary system size.

    The horizon is the paper's 10 days, or :func:`event_budgeted`'s for
    ``event_budget``.
    """
    base = SimConfig(
        n_peers=n_peers,
        policy=policy,
        sync_mode=sync_mode,
        mean_online=2 * HOUR,
        mean_offline=2 * HOUR,
    )
    return base if event_budget is None else event_budgeted(base, event_budget)


def setup_a_configs(
    policy: Policy = POLICY_I,
    sync_mode: str = "proactive",
    mean_offline_hours: float = 2.0,
    small: bool = False,
) -> list[SimConfig]:
    """The Setup-A µ sweep for one (policy, sync) configuration.

    ``mean_offline_hours`` selects the short (1 h) / median (2 h) / long
    (4 h) downtime family; the paper's figures show the median one.
    """
    base = SimConfig(
        policy=policy,
        sync_mode=sync_mode,
        mean_offline=mean_offline_hours * HOUR,
    )
    if small:
        base = replace(base, n_peers=150, duration=5 * DAY, renewal_period=1.5 * DAY)
        sweep = SMALL_MU_SWEEP_HOURS
    else:
        sweep = FULL_MU_SWEEP_HOURS
    return [replace(base, mean_online=mu * HOUR) for mu in sweep]


def setup_b_configs(
    policy: Policy = POLICY_I,
    sync_mode: str = "proactive",
    small: bool = False,
) -> list[SimConfig]:
    """The Setup-B size sweep at 50% availability (µ = ν = 2 h)."""
    base = SimConfig(
        policy=policy,
        sync_mode=sync_mode,
        mean_online=2 * HOUR,
        mean_offline=2 * HOUR,
    )
    if small:
        base = replace(base, duration=5 * DAY, renewal_period=1.5 * DAY)
        sweep = SMALL_SIZE_SWEEP
    else:
        sweep = FULL_SIZE_SWEEP
    return [replace(base, n_peers=n) for n in sweep]
