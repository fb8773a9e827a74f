"""``benchmarks/_common.py``: the report driver and the per-point child."""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import _common  # noqa: E402

from repro.core.clock import DAY, HOUR  # noqa: E402
from repro.sim.config import SimConfig  # noqa: E402
from repro.sim.policies import POLICY_III  # noqa: E402
from repro.sim.runner import run_one, strip_timing  # noqa: E402

TINY = SimConfig(
    n_peers=15,
    duration=0.4 * DAY,
    renewal_period=0.15 * DAY,
    mean_online=2 * HOUR,
    mean_offline=2 * HOUR,
    policy=POLICY_III,
    sync_mode="lazy",
    seed=5,
)


class TestReportMain:
    @pytest.fixture(autouse=True)
    def _scratch_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_common, "OUT_DIR", tmp_path)

    def run(self, monkeypatch, *argv, **kwargs):
        monkeypatch.setattr(sys, "argv", ["bench_x.py", *argv])
        return _common.report_main("BENCH_x", lambda quick: {"rows": [1, 2], "scale": quick}, None, **kwargs)

    @pytest.mark.parametrize("argv,name,quick", [((), "BENCH_x.json", False), (("--quick",), "BENCH_x_quick.json", True)])
    def test_path_rule_and_stamp(self, monkeypatch, tmp_path, argv, name, quick):
        report = self.run(monkeypatch, *argv)
        assert json.loads((tmp_path / name).read_text()) == report
        assert list(report) == ["benchmark", "host", "commit", "quick", "rows", "scale"]
        assert (report["benchmark"], report["quick"], report["scale"]) == ("BENCH_x", quick, quick)
        assert {"nproc", "python", "platform"} <= set(report["host"])
        assert set(report["commit"]) == {"rev", "dirty"}

    def test_out_and_an_older_benchmark_name(self, monkeypatch, tmp_path):
        out = tmp_path / "elsewhere" / "r.json"
        report = self.run(monkeypatch, "--quick", "--out", str(out), benchmark="older_name")
        assert json.loads(out.read_text())["benchmark"] == report["benchmark"] == "older_name"
        assert not (tmp_path / "BENCH_x_quick.json").exists()

    def test_there_is_no_third_flag(self, monkeypatch):
        with pytest.raises(SystemExit):
            self.run(monkeypatch, "--check-speedup", "1.5")


class TestSimulate:
    def test_each_distinct_config_runs_once(self, monkeypatch):
        built = []
        real = _common.build_simulation
        monkeypatch.setattr(_common, "build_simulation", lambda c, e: (built.append(c), real(c, e))[1])
        monkeypatch.setattr(_common, "_metrics", {})
        a, b = replace(TINY, seed=1), replace(TINY, seed=2)
        first = _common.simulate([a, b, a])
        assert built == [a, b] and first[0] is first[2]
        assert _common.simulate([b])[0] is first[1] and built == [a, b]


def test_run_point_returns_the_runners_row_from_a_fresh_process():
    row = _common.run_point(TINY)
    assert row.pop("total_s") >= row["wall_s"] > 0
    assert strip_timing(row) == strip_timing(run_one(TINY))
    assert row["peak_rss_kb"] > 0
