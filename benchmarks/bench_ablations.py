"""The seven simulator ablations: one module, one way to run a point.

Each ablation below is a finding the paper states, conjectures or leaves out,
re-run on the operation-level simulator: the docstring says what is compared
and what is expected, the ``run_*`` function is the timed body, the test
writes ``benchmarks/out/ablation_<name>.txt`` and asserts the finding.  Every
point goes through ``_common.simulate``, so the Setup-A Policy I + lazy sweep
that four of them (and Figures 3/5) read is simulated once.  The two
ablations that drive the real protocol stack (``onion``, ``dht_detection``)
keep their own files.
"""

from dataclasses import replace

from repro.analysis.stats import gini, pearson, top_share
from repro.analysis.tables import format_series_table, format_table
from repro.core.clock import DAY, HOUR
from repro.sim.baseline_sim import centralized_load, ppay_load, whopay_load
from repro.sim.config import SimConfig, setup_a_configs, setup_b_configs
from repro.sim.costs import OP_COSTS
from repro.sim.policies import POLICY_I, POLICY_I_LAYERED, POLICY_II_A, POLICY_II_B, POLICY_III

from _common import FULL_SCALE, emit, simulate

#: The ``SimConfig`` overrides that turn a baseline point into each variant;
#: ``bench_figures_scaled.ABLATIONS`` re-runs the same variants at 10x.
VARIANTS = {
    "detection": {"detection": True},
    "powerlaw": {"heterogeneity": "powerlaw"},
    "layered": {"policy": POLICY_I_LAYERED},
}


def _setup_a(policy=POLICY_I, sync_mode="lazy", **overrides):
    """(µ in hours, metrics) per point of one Setup-A sweep, ``overrides`` applied."""
    configs = [
        replace(config, **overrides)
        for config in setup_a_configs(policy=policy, sync_mode=sync_mode, small=not FULL_SCALE)
    ]
    return [c.mean_online / 3600.0 for c in configs], simulate(configs)


# -- baselines ----------------------------------------------------------------


def run_baselines():
    mu, runs = _setup_a()
    return [
        {
            "mu": m,
            "whopay": whopay_load(metrics).broker_cpu_share,
            "ppay": ppay_load(metrics).broker_cpu_share,
            "centralized": centralized_load(metrics).broker_cpu_share,
        }
        for m, metrics in zip(mu, runs)
    ]


def test_ablation_baseline_broker_share(benchmark, scale_note):
    """WhoPay vs PPay vs fully-centralized transfer.

    The paper's motivating comparison (Sections 1, 4.3, 7): the same payment
    workload served by

    * **WhoPay** — owner-mediated transfers, broker only for purchase / deposit
      / downtime;
    * **PPay** — identical routing, no group signatures (cheaper peers, zero
      anonymity);
    * **centralized** (Burk–Pfitzmann / Vo–Hohenberger) — every transfer is a
      broker round trip.

    Expected shape: WhoPay and PPay give the broker a few percent of total load;
    the centralized design concentrates a large share on the broker, growing
    with availability (more payments → proportionally more broker work), while
    WhoPay's broker share *shrinks* with availability (fewer downtime ops).
    """
    rows = benchmark.pedantic(run_baselines, rounds=1, iterations=1)
    mu = [r["mu"] for r in rows]
    series = {
        name: [round(r[name], 4) for r in rows]
        for name in ("whopay", "ppay", "centralized")
    }
    emit(
        "ablation_baselines",
        format_series_table(
            "mu_hours", mu, series,
            title=f"Ablation: Broker CPU share — WhoPay vs PPay vs centralized — {scale_note}",
        ),
    )

    for i in range(len(mu)):
        # Both P2P designs beat the centralized one at every point, and
        # decisively (3x+) once availability leaves the degenerate corner
        # where nearly everything is a downtime operation anyway.
        assert series["centralized"][i] > series["whopay"][i], mu[i]
        assert series["centralized"][i] > series["ppay"][i], mu[i]
        if mu[i] >= 1.0:
            assert series["centralized"][i] > 3 * series["whopay"][i], mu[i]
            assert series["centralized"][i] > 3 * series["ppay"][i], mu[i]
        # WhoPay's anonymity costs peers extra group-signature work, which
        # *lowers* the broker's relative share vs PPay slightly; the two
        # stay in the same few-percent band.
        assert abs(series["whopay"][i] - series["ppay"][i]) < 0.06
    # Centralized share grows (or stays high) with availability; WhoPay's falls.
    assert series["whopay"][-1] < series["whopay"][0]
    assert series["centralized"][-1] > 0.25


# -- detection_simlevel -------------------------------------------------------


def run_detection():
    mu, without = _setup_a()
    _mu, with_detection = _setup_a(**VARIANTS["detection"])
    return [
        {
            "mu": m,
            "broker_cpu_off": off.broker_cpu_load(),
            "broker_cpu_on": on.broker_cpu_load(),
            "peer_comm_off": off.peer_comm_load_total(),
            "peer_comm_on": on.peer_comm_load_total(),
            "publishes": on.ops["dht_publish"],
            "reads": on.ops["dht_read"],
        }
        for m, off, on in zip(mu, without, with_detection)
    ]


def test_ablation_detection_at_scale(benchmark, scale_note):
    """Real-time detection priced at evaluation scale.

    `bench_ablation_dht_detection.py` measures the §5.1 extension on the real
    protocol stack (tens of payments).  This bench prices it at the paper's
    evaluation scale with the operation-level model: one DHT publish per binding
    update, one verify-before-accept read per payment, across the availability
    sweep.

    Expected: broker load untouched (the DHT carries the machinery — the
    paper's explicit design goal for the extension), peer communication load up
    by a roughly constant factor, rising slightly with availability (more
    payments → more publishes/reads per peer).

    Both sides run lazy sync, so both take the engine's generic merge loop and
    share one realization: that is what makes the broker-load equality exact.
    Under proactive sync the detection-off side would take the plain loop, a
    different realization (docs/SIMULATOR.md, "Why two paths, twice").
    """
    rows = benchmark.pedantic(run_detection, rounds=1, iterations=1)
    mu = [r["mu"] for r in rows]
    series = {
        "peer_comm(off)": [r["peer_comm_off"] for r in rows],
        "peer_comm(on)": [r["peer_comm_on"] for r in rows],
        "dht_publishes": [r["publishes"] for r in rows],
        "dht_reads": [r["reads"] for r in rows],
    }
    emit(
        "ablation_detection_simlevel",
        format_series_table(
            "mu_hours", mu, series,
            title=f"Ablation: Section 5.1 detection overhead at evaluation scale — {scale_note}",
        ),
    )

    for r in rows:
        # The broker is untouched: the whole point of publishing to a DHT
        # instead of "a central trusted server" (Section 5.1).
        assert r["broker_cpu_on"] == r["broker_cpu_off"], r["mu"]
        # Peers pay a bounded communication premium: just over 2x at the
        # low-availability corner (few payments, but every renewal still
        # publishes), well under 2x through the operating region.
        assert r["peer_comm_off"] < r["peer_comm_on"] < 2.5 * r["peer_comm_off"], r["mu"]
        if r["mu"] >= 1.0:
            assert r["peer_comm_on"] < 2 * r["peer_comm_off"], r["mu"]
    # Publishes track binding updates, which grow with availability.
    assert series["dht_publishes"][-1] > series["dht_publishes"][0]


# -- gsig_cost ----------------------------------------------------------------

#: Measured gsig/gver relative cost at roster size 8 (Table 3 bench): ~50.
MEASURED_RATIO_SMALL = 50.0
#: Our scheme scales linearly: ratio ≈ 6.5 per member (50/8 extrapolated).
PER_MEMBER_RATIO = MEASURED_RATIO_SMALL / 8.0


def _reprice(metrics, gsig_cost: float) -> tuple[float, float]:
    """(broker_cpu, peer_cpu_total) with group sig/verify at ``gsig_cost``."""
    weights = {"keygen": 1, "sig": 2, "ver": 2, "gsig": gsig_cost, "gver": gsig_cost}
    broker = peer = 0.0
    for op, count in metrics.ops.items():
        cost = OP_COSTS[op]
        peer += count * sum(weights[m] * n for m, n in cost.peer_micro.items())
        broker += count * sum(weights[m] * n for m, n in cost.broker_micro.items())
    peer += sum(weights[m] * n for m, n in metrics.extra_peer_micro.items())
    return broker, peer


def run_gsig_models():
    rows = []
    for mu, metrics in zip(*_setup_a()):
        models = {
            "paper": 4.0,
            "measured-8": MEASURED_RATIO_SMALL,
            "measured-N": PER_MEMBER_RATIO * metrics.n_peers,
        }
        row = {"mu": mu}
        for name, gsig_cost in models.items():
            broker, peer = _reprice(metrics, gsig_cost)
            per_peer = peer / metrics.n_peers
            row[f"ratio({name})"] = broker / per_peer if per_peer else 0.0
            row[f"share({name})"] = broker / (broker + peer) if broker + peer else 0.0
        rows.append(row)
    return rows


def test_ablation_gsig_cost_models(benchmark, scale_note):
    """The group-signature cost assumption (Table 3's "wild guess").

    The paper admits it guessed group-signature cost at 2x DSA ("we are forced
    to make a wild guess that efficient group signature schemes exist…").  Our
    actual scheme's cost is linear in the roster size (see the Table 3 bench).
    This ablation re-prices the same simulated operation mix under three cost
    models and shows what the guess is load-bearing for:

    * ``paper``      — Table 3 as printed (gsig/gver = 4 keygen units);
    * ``measured-8`` — our scheme at a small roster (ratio ≈ 50);
    * ``measured-N`` — our scheme at roster size = system size (ratio ∝ N).

    Finding (asserted below): the guess is *not* load-bearing, but for a
    subtler reason than "group signatures are rare".  The broker verifies group
    signatures too (every downtime operation and deposit carries one), so
    raising the gsig cost inflates both sides.  Which side wins depends on the
    operation mix: at low availability the broker's gver-heavy downtime traffic
    dominates and its share creeps *up* slightly; at high availability the
    peers' transfer traffic dominates and the broker share falls.  Across the
    whole sweep and all three models the headline is untouched: the broker
    share stays far below the centralized alternative.
    """
    rows = benchmark.pedantic(run_gsig_models, rounds=1, iterations=1)
    mu = [r["mu"] for r in rows]
    series = {
        key: [round(r[key], 4) for r in rows]
        for key in ("share(paper)", "share(measured-8)", "share(measured-N)")
    }
    emit(
        "ablation_gsig_cost",
        format_series_table(
            "mu_hours", mu, series,
            title=f"Ablation: broker CPU share under three group-signature cost models — {scale_note}",
        ),
    )

    for i in range(len(mu)):
        # The headline survives every cost model at every point: the broker
        # carries a small minority of the load.
        for key in series:
            assert series[key][i] < 0.35, (mu[i], key)
        # The models stay within a small factor of each other (the spread
        # widens at extreme availability where absolute shares are tiny).
        values = [series[key][i] for key in series]
        assert max(values) <= 3.0 * min(values), mu[i]
    # The crossover: costlier gsigs RAISE the broker share at low
    # availability (broker-side gver in downtime ops) and LOWER it at high
    # availability (peer-side transfer gsigs dominate).
    assert series["share(measured-N)"][0] > series["share(paper)"][0]
    assert series["share(measured-N)"][-1] < series["share(paper)"][-1]


# -- layered ------------------------------------------------------------------


def run_layered():
    mu, plain_runs = _setup_a()
    _mu, layered_runs = _setup_a(**VARIANTS["layered"])
    rows = []
    for m, plain, layered in zip(mu, plain_runs, layered_runs):
        layered_count = layered.ops["layered_transfer"]
        rows.append(
            {
                "mu": m,
                "plain_broker_cpu": plain.broker_cpu_load(),
                "layered_broker_cpu": layered.broker_cpu_load(),
                "plain_dtransfers": plain.ops["downtime_transfer"],
                "layered_dtransfers": layered.ops["downtime_transfer"],
                "layered_transfers": layered_count,
                "avg_depth": (layered.layered_depth_total / layered_count) if layered_count else 0.0,
                "max_depth": layered.layered_depth_max,
                "plain_peer_cpu": plain.peer_cpu_load_total(),
                "layered_peer_cpu": layered.peer_cpu_load_total(),
            }
        )
    return rows


def test_ablation_layered_offline_transfers(benchmark, scale_note):
    """Layered coins as the offline-transfer fallback (Section 7).

        "layered coins can be a lightweight alternative to transfer-via-broker
        when coin owners are offline.  To alleviate the size and security
        problems mentioned above, a maximum number of layers can be imposed."

    Compares Policy I (offline coins via broker downtime transfers) against
    Policy I.layered (offline coins via signature stacking, broker only at the
    layer cap) across the availability sweep.  Expected trade:

    * broker load drops — the downtime-transfer series almost vanishes;
    * peer CPU rises — payees verify ever-longer chains (depth-dependent
      verifications are accounted exactly);
    * chain depth stays modest under the cap, and grows as availability falls
      (offline owners are the trigger).
    """
    rows = benchmark.pedantic(run_layered, rounds=1, iterations=1)
    mu = [r["mu"] for r in rows]
    series = {
        "broker_cpu(I)": [r["plain_broker_cpu"] for r in rows],
        "broker_cpu(I.layered)": [r["layered_broker_cpu"] for r in rows],
        "dtransfers(I)": [r["plain_dtransfers"] for r in rows],
        "dtransfers(I.layered)": [r["layered_dtransfers"] for r in rows],
        "layered_transfers": [r["layered_transfers"] for r in rows],
        "avg_depth": [round(r["avg_depth"], 2) for r in rows],
    }
    emit(
        "ablation_layered",
        format_series_table(
            "mu_hours", mu, series,
            title=f"Ablation: layered-coin offline transfers vs broker downtime transfers — {scale_note}",
        ),
    )

    for r in rows:
        # Broker relief: layered fallback strictly reduces broker CPU, and
        # nearly eliminates downtime transfers (cap-overflow residue only).
        assert r["layered_broker_cpu"] < r["plain_broker_cpu"], r["mu"]
        assert r["layered_dtransfers"] <= r["plain_dtransfers"] * 0.25, r["mu"]
        # The paper's cost: peers pay more (chain verification).
        if r["layered_transfers"] > 100:
            assert r["layered_peer_cpu"] > r["plain_peer_cpu"] * 0.95, r["mu"]
        # The cap holds.
        assert r["max_depth"] <= 16
    # Depth pressure rises as availability falls.
    assert rows[0]["avg_depth"] > rows[-1]["avg_depth"]


# -- load_distribution --------------------------------------------------------


def run_load_distribution():
    base = SimConfig(
        n_peers=150 if not FULL_SCALE else 1000,
        duration=(5 if not FULL_SCALE else 10) * DAY,
        renewal_period=(1.5 if not FULL_SCALE else 3) * DAY,
        mean_online=2 * HOUR,
        mean_offline=2 * HOUR,
        policy=POLICY_I,
        sync_mode="lazy",
        track_per_peer=True,
    )
    populations = ("uniform", "powerlaw")
    out = {}
    for heterogeneity, metrics in zip(
        populations, simulate(replace(base, heterogeneity=h) for h in populations)
    ):
        served = metrics.served_distribution()
        payments = [metrics.per_peer_payments.get(i, 0) for i in range(base.n_peers)]
        out[heterogeneity] = {
            "gini_served": gini(served),
            "corr_activity_work": pearson(
                [float(p) for p in payments], [float(s) for s in served]
            ),
            "top10_share": top_share(served, 0.1),
        }
    return out


def test_ablation_load_distribution(benchmark, scale_note):
    """Load *distribution* across peers (Section 4.3's claim).

        "In general, the more coins a peer issues, the more transfers and
        renewals he needs to handle.  This is desirable, as we expect more
        active peers to do more work."

    Figures 4/5 plot only the *average* peer load; this bench looks at the
    distribution behind it.  Under the uniform population, served work is
    spread evenly; under the power-law population, the activity head issues
    most coins and therefore serves most transfers/renewals — work follows
    activity, exactly the "desirable" alignment the paper asserts.

    The two populations are two realizations, and per-peer tracking puts both
    on the engine's generic merge loop; the comparison is of distributions,
    not of one run with and without a counter (docs/SIMULATOR.md, "Why two
    paths, twice").
    """
    data = benchmark.pedantic(run_load_distribution, rounds=1, iterations=1)
    rows = [
        {
            "population": name,
            "gini_served": round(stats["gini_served"], 3),
            "corr(activity, served)": round(stats["corr_activity_work"], 3),
            "top-10% share": round(stats["top10_share"], 3),
        }
        for name, stats in data.items()
    ]
    emit(
        "ablation_load_distribution",
        format_table(
            rows,
            ["population", "gini_served", "corr(activity, served)", "top-10% share"],
            title=f"Ablation: who does the owner-side work — {scale_note}",
        ),
    )

    uniform, powerlaw = data["uniform"], data["powerlaw"]
    # Power-law concentrates served work far more than uniform…
    assert powerlaw["gini_served"] > uniform["gini_served"] + 0.15
    assert powerlaw["top10_share"] > uniform["top10_share"] * 1.5
    # …and the concentration lands on the *active* peers (the paper's
    # "desirable" alignment): activity and served work correlate strongly.
    assert powerlaw["corr_activity_work"] > 0.7


# -- policy2 ------------------------------------------------------------------


def run_all_policies():
    data = {}
    for policy in (POLICY_I, POLICY_II_A, POLICY_II_B, POLICY_III):
        mu, runs = _setup_a(policy, "proactive")
        data[policy.name] = [(m, metrics.broker_cpu_load()) for m, metrics in zip(mu, runs)]
    return data


def test_ablation_policy2_sandwich(benchmark, scale_note):
    """The middle-ground policies II.a and II.b.

    The paper ran policy II and reported only that its results "were less
    interesting"; this bench shows why: II.a/II.b land between I and III on
    broker load at every availability point, so they add no new information —
    but we verify the sandwich rather than assume it.
    """
    data = benchmark.pedantic(run_all_policies, rounds=1, iterations=1)
    mu = [point[0] for point in data["I"]]
    series = {name: [point[1] for point in points] for name, points in data.items()}
    emit(
        "ablation_policy2",
        format_series_table(
            "mu_hours", mu, series,
            title=f"Ablation: Broker CPU load across all four policies — {scale_note}",
        ),
    )

    slack = 1.05  # simulation noise allowance
    for i in range(len(mu)):
        assert series["III"][i] <= series["II.a"][i] * slack, mu[i]
        assert series["II.a"][i] <= series["I"][i] * slack, mu[i]
        assert series["III"][i] <= series["II.b"][i] * slack, mu[i]
        assert series["II.b"][i] <= series["I"][i] * slack, mu[i]


# -- superpeers ---------------------------------------------------------------


def run_superpeers():
    uniform = setup_b_configs(policy=POLICY_I, sync_mode="lazy", small=not FULL_SCALE)
    data = {}
    for name, configs in (
        ("uniform", uniform),
        ("powerlaw", [replace(config, **VARIANTS["powerlaw"]) for config in uniform]),
    ):
        shares = [metrics.broker_cpu_share() for metrics in simulate(configs)]
        data[name] = ([config.n_peers for config in configs], shares)
    return data


def test_ablation_superpeer_conjecture(benchmark, scale_note):
    """The paper's super-peer conjecture (Section 6.2).

    After finding that broker load grows linearly with system size, the authors
    conjecture: "In reality, we are more likely to see power-law peers … peers
    will have better chances of finding a coin owned by a super peer (who is
    most likely online) at the time of payments.  As a result, broker load will
    probably grow sublinearly with total system load.  Certainly we need to do
    more simulation work to verify the validity of this conjecture."

    This bench *is* that simulation work.  Model: Zipf activity weights, payee
    selection proportional to activity, availability rising with activity to a
    0.98 ceiling (see ``SimConfig.heterogeneity``).

    Finding (asserted below): the conjectured mechanism is real but it is a
    **level** effect, not a **scaling** effect — super peers cut the broker's
    share of load roughly in half at every system size (most circulating coins
    end up owned by highly-available peers, so downtime operations collapse),
    yet the share remains flat in N: broker load still grows linearly with
    total system load.  The conjecture's premise holds; its conclusion does not.
    """
    data = benchmark.pedantic(run_superpeers, rounds=1, iterations=1)
    sizes = data["uniform"][0]
    series = {
        "uniform": [round(v, 4) for v in data["uniform"][1]],
        "powerlaw": [round(v, 4) for v in data["powerlaw"][1]],
    }
    emit(
        "ablation_superpeers",
        format_series_table(
            "n_peers", sizes, series,
            title=f"Ablation: broker CPU share, uniform vs power-law peers — {scale_note}",
        ),
    )

    # The conjectured mechanism: super peers substantially reduce broker
    # involvement at every system size.
    for i in range(len(sizes)):
        assert series["powerlaw"][i] < 0.75 * series["uniform"][i], sizes[i]
    # The conjectured conclusion does NOT hold: the share stays flat in N
    # (no sublinear broker-load growth) under the power-law model too.
    low, high = min(series["powerlaw"]), max(series["powerlaw"])
    assert high <= low * 1.6, series["powerlaw"]
