"""``benchmarks/check.py``: the floor table, its operators, the committed reports."""

import json
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))
import check  # noqa: E402

#: Every committed full-run report that has rows in the table.
COMMITTED = [
    f"BENCH_{name}.json"
    for name in ("crypto", "federation", "figures_scaled", "liveness", "recovery", "sim_scaling", "throughput")
]


class TestOperators:
    @pytest.mark.parametrize(
        "op,value,bound,verdict",
        [
            (">=", 1.5, 1.5, True), (">=", 1.49, 1.5, False),
            ("<=", 0.35, 0.35, True), ("<=", 0.36, 0.35, False),
            (">", 0.1, 0, True), (">", 0, 0, False),
            ("==", "fast", "fast", True), ("==", "reference", "fast", False),
            ("==", True, True, True), ("==", 1, 0, False),
        ],
    )  # fmt: skip
    def test_comparison(self, op, value, bound, verdict):
        assert check.holds(op, value, bound) is verdict

    @pytest.mark.parametrize("op", [">=", "<=", ">", "=="])
    def test_a_missing_measurement_never_holds(self, op):
        assert not check.holds(op, None, 1)

    def test_fraction_of_committed(self):
        for op, bound, inside, outside in ((">= committed x", 0.4, 40, 39), ("<= committed x", 1.25, 125, 126)):
            assert check.holds(op, inside, bound, committed=100), op
            assert not check.holds(op, outside, bound, committed=100), op
            assert not check.holds(op, inside, bound, committed=None), op
            assert not check.holds(op, None, bound, committed=100), op

    def test_every_operator_in_the_table_is_implemented(self):
        relative = {op + check._RELATIVE for op in (">=", "<=")}
        assert {floor.op for floor in check.FLOORS} <= {*check._COMPARE, *relative}


class TestSelect:
    REPORT = {
        "a": {"x": {"v": 1}, "y": {"v": 2}},
        "rows": [{"n": 10, "v": 3, "engine": "fast"}, {"n": 1000000, "v": 4, "engine": "fast"}],
        "deep": {"list": [{"engine": "reference"}]},
    }

    @pytest.mark.parametrize(
        "path,values",
        [
            ("a.x.v", [1]),
            ("a.*.v", [1, 2]),
            ("rows.*.v", [3, 4]),
            ("rows.n=1000000.v", [4]),
            ("**.engine", ["fast", "fast", "reference"]),
            ("a.z.v", []),
            ("rows.n=7.v", []),
        ],
    )
    def test_paths(self, path, values):
        assert list(check.select(self.REPORT, path)) == values


class TestCheck:
    def report(self, **over):
        return {"benchmark": "broker_federation_load", "quick": True, "flatten_at_largest": 0.4, **over}

    def test_scale_selects_the_bound(self):
        assert check.check(self.report(), "x") == []
        (failure,) = check.check(self.report(quick=False), "x")
        assert "[full] flatten_at_largest: 0.4 not <= 0.35" in failure

    def test_an_unstamped_report_goes_by_its_file_name(self):
        report = self.report()
        del report["benchmark"]
        assert check.check(report, "broker_federation_load") == []
        assert "no floor is written" in check.check(report, "BENCH_unknown")[0]

    def test_a_path_that_selects_nothing_fails(self):
        report = self.report()
        del report["flatten_at_largest"]
        assert "selects nothing" in check.check(report, "x")[0]

    def test_a_bound_of_none_is_not_held_at_that_scale(self, tmp_path):
        # No million-peer point in a quick report, and no row asks for one;
        # the committed-file comparisons read the full run beside it.
        quick = {"benchmark": "BENCH_sim_scaling", "quick": True,
                 "speedup": {"10000": {"speedup": 6.0, "fast_events_per_sec": 50}},
                 "points": [{"n_peers": 100000, "peak_rss_kb": 110}]}
        committed = {"speedup": {"10000": {"fast_events_per_sec": 100}},
                     "points": [{"n_peers": 100000, "peak_rss_kb": 88}, {"n_peers": 1000000, "peak_rss_kb": 230}]}
        (tmp_path / "BENCH_sim_scaling.json").write_text(json.dumps(committed))
        assert check.check(quick, "x", out_dir=tmp_path) == []
        quick["speedup"]["10000"]["fast_events_per_sec"] = 39
        quick["points"][0]["peak_rss_kb"] = 111
        below, above = check.check(quick, "x", out_dir=tmp_path)
        assert "39 not >= committed x 0.4 x 100" in below
        assert "111 not <= committed x 1.25 x 88" in above

    def test_command_line_takes_paths_only(self, tmp_path, capsys):
        good = tmp_path / "BENCH_federation_quick.json"
        good.write_text(json.dumps(self.report()))
        assert check.main([str(good)]) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self.report(flatten_at_largest=0.9)))
        assert check.main([str(good), str(bad)]) == 1
        assert "FAIL broker_federation_load [quick] flatten_at_largest: 0.9" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            check.main(["--check-flatten", "0.5"])


@pytest.mark.parametrize("name", COMMITTED)
def test_committed_full_run_passes_its_full_bounds(name):
    path = BENCHMARKS / "out" / name
    report = json.loads(path.read_text())
    assert report["quick"] is False
    assert check.check(report, path.stem) == []


def test_every_table_row_names_a_committed_report():
    named = {json.loads((BENCHMARKS / "out" / name).read_text()).get("benchmark", name[:-5]) for name in COMMITTED}
    assert {floor.report for floor in check.FLOORS} == named
