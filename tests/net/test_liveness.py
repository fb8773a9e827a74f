"""Liveness primitives: detector arithmetic and leases."""

import pytest

from repro.net.liveness import (
    ALIVE,
    DEAD,
    LN10,
    SUSPECT,
    LeaseTable,
    LivenessConfig,
    PhiAccrualDetector,
)


CFG = LivenessConfig(heartbeat_interval=1.0, phi_threshold=4.0, lease_duration=3.0)


class TestLivenessConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            LivenessConfig(heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            LivenessConfig(phi_threshold=0.0)
        with pytest.raises(ValueError):
            LivenessConfig(window=0)
        with pytest.raises(ValueError):
            LivenessConfig(lease_duration=0.0)
        with pytest.raises(ValueError):
            LivenessConfig(suspect_fraction=1.0)
        with pytest.raises(ValueError):
            LivenessConfig(mean_ceiling=0.5)

    def test_detection_window_formula(self):
        assert CFG.detection_window() == pytest.approx(4.0 * LN10 * 1.0 * 2.0)


class TestPhiAccrualDetector:
    def test_phi_grows_with_silence_and_resets_on_arrival(self):
        det = PhiAccrualDetector(CFG)
        det.expect("s0", 0.0)
        for t in (1.0, 2.0, 3.0):
            det.observe("s0", t)
        assert det.phi("s0", 3.0) == 0.0
        early = det.phi("s0", 4.0)
        late = det.phi("s0", 8.0)
        assert 0.0 < early < late
        det.observe("s0", 9.0)
        assert det.phi("s0", 9.0) == 0.0

    def test_state_quantization(self):
        det = PhiAccrualDetector(CFG)
        det.expect("s0", 0.0)
        det.observe("s0", 1.0)
        # mean = interval = 1.0; phi = elapsed / ln10.
        assert det.state("s0", 1.5) == ALIVE
        suspect_at = 1.0 + 2.0 * LN10 + 0.01  # phi crosses threshold/2
        assert det.state("s0", suspect_at) == SUSPECT
        dead_at = 1.0 + 4.0 * LN10 + 0.01
        assert det.state("s0", dead_at) == DEAD

    def test_mean_is_floored_and_capped(self):
        det = PhiAccrualDetector(CFG)
        det.expect("s0", 0.0)
        # Tiny gaps cannot drive the mean below the configured interval
        # (which would make the detector hair-triggered)...
        for i in range(1, 6):
            det.observe("s0", i * 0.01)
        assert det.mean_interval("s0") == CFG.heartbeat_interval
        # ...and huge gaps cannot inflate it past interval * ceiling (which
        # would break the detection_window guarantee).
        det2 = PhiAccrualDetector(CFG)
        det2.expect("s1", 0.0)
        for i in range(1, 6):
            det2.observe("s1", i * 50.0)
        assert det2.mean_interval("s1") == CFG.heartbeat_interval * CFG.mean_ceiling

    def test_detection_window_is_a_hard_bound(self):
        det = PhiAccrualDetector(CFG)
        det.expect("s0", 0.0)
        for i in range(1, 6):
            det.observe("s0", i * 100.0)  # pathological history
        last = det.last_seen("s0")
        assert det.state("s0", last + CFG.detection_window() + 1e-9) == DEAD

    def test_snapshot_and_merge_freshest_wins(self):
        a = PhiAccrualDetector(CFG)
        b = PhiAccrualDetector(CFG)
        a.observe("s0", 5.0)
        a.observe("s1", 2.0)
        b.observe("s1", 7.0)
        a.merge(b.snapshot())
        assert a.snapshot() == {"s0": 5.0, "s1": 7.0}
        b.merge(a.snapshot())  # older s1 entry must not regress b's view
        assert b.last_seen("s1") == 7.0
        assert b.last_seen("s0") == 5.0

    def test_reset_clears_history(self):
        det = PhiAccrualDetector(CFG)
        det.expect("s0", 0.0)
        for i in range(1, 4):
            det.observe("s0", float(i))
        det.reset("s0", 10.0)
        assert det.phi("s0", 10.0) == 0.0
        assert det.mean_interval("s0") == CFG.heartbeat_interval

    def test_monitored_is_sorted(self):
        det = PhiAccrualDetector(CFG)
        for name in ("s2", "s0", "s1"):
            det.expect(name, 0.0)
        assert det.monitored() == ["s0", "s1", "s2"]


class TestLeaseTable:
    def test_renew_and_expiry(self):
        leases = LeaseTable(duration=3.0)
        assert leases.expired("s0", 0.0)  # never granted = lapsed
        leases.renew("s0", 1.0)
        assert not leases.expired("s0", 3.9)
        assert leases.expired("s0", 4.0)

    def test_renewal_never_shrinks_the_lease(self):
        leases = LeaseTable(duration=3.0)
        leases.renew("s0", 10.0)
        leases.renew("s0", 5.0)  # stale (reordered) renewal
        assert leases.expires_at("s0") == 13.0

    def test_duration_validation(self):
        with pytest.raises(ValueError):
            LeaseTable(duration=0.0)
