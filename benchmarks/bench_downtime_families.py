"""Table 1's three downtime families (ν ∈ {1, 2, 4} hours).

The paper ran short- (ν = 1 h), median- (2 h) and long-downtime (4 h)
simulations and reported: "the results for the short downtime simulation,
median downtime simulation, and long downtime simulation are pretty similar
to each other, we will only show the results for the median downtime
simulation."  This bench runs all three families and verifies that claim:
the qualitative shapes (purchases rising, downtime ops unimodal, syncs
falling) hold in every family, and the broker-share curves agree once
plotted against *availability* rather than µ.
"""

from repro.analysis.series import is_decreasing, is_increasing, rises_then_falls
from repro.analysis.tables import format_series_table

from _common import emit, sweep

FAMILIES = (1.0, 2.0, 4.0)


def run_families():
    return {nu: sweep("A", "I", "proactive", mean_offline_hours=nu) for nu in FAMILIES}


def test_downtime_families_similar(benchmark, scale_note):
    data = benchmark.pedantic(run_families, rounds=1, iterations=1)
    mu = [r["mu_hours"] for r in data[2.0]]
    series = {
        f"share(nu={nu:g}h)": [round(r["broker_cpu_share"], 4) for r in rows]
        for nu, rows in data.items()
    }
    emit(
        "downtime_families",
        format_series_table(
            "mu_hours", mu, series,
            title=f"Table 1 families: broker CPU share for nu = 1/2/4 h — {scale_note}",
        ),
    )

    def unimodal(values, nu):
        # The downtime curves crest where availability is moderate.  For
        # the short-downtime family the reduced sweep's first point
        # (µ = 0.25 h, α = 0.2) already sits at/past that crest, so the
        # peak may land on the left edge — accept a monotone fall there,
        # but still require a strictly interior peak for ν = 2/4 h.
        if nu == 1.0 and max(range(len(values)), key=values.__getitem__) == 0:
            return is_decreasing(values, tolerance=0.10)
        return rises_then_falls(values, tolerance=0.10)

    for nu, rows in data.items():
        purchases = [r["broker_purchase"] for r in rows]
        dtransfers = [r["broker_downtime_transfer"] for r in rows]
        drenewals = [r["broker_downtime_renewal"] for r in rows]
        syncs = [r["broker_sync"] for r in rows]
        assert is_increasing(purchases, tolerance=0.10), (nu, purchases)
        assert unimodal(dtransfers, nu), (nu, dtransfers)
        assert unimodal(drenewals, nu), (nu, drenewals)
        assert is_decreasing(syncs, tolerance=0.05), (nu, syncs)

    # "Pretty similar": at comparable availability the families' broker
    # shares agree within a factor of two.  ν = 1 h at µ = 1 h gives
    # α = 0.5, matching ν = 2 h at µ = 2 h and ν = 4 h at µ = 4 h.
    comparable = {
        1.0: next(r for r in data[1.0] if r["mu_hours"] == 1.0),
        2.0: next(r for r in data[2.0] if r["mu_hours"] == 2.0),
        4.0: next(r for r in data[4.0] if r["mu_hours"] == 4.0),
    }
    shares = [row["broker_cpu_share"] for row in comparable.values()]
    assert max(shares) <= 2.0 * min(shares), shares
