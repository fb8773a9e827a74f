"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import main
from repro.core.clock import DAY
from repro.sim.config import SimConfig
from repro.sim.runner import run_one


class TestRunCommand:
    def test_run_prints_summary(self, capsys):
        code = main([
            "run", "--peers", "20", "--days", "0.5", "--mu", "2", "--nu", "2",
            "--renewal-days", "0.2", "--policy", "I", "--seed", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "operation counts" in out
        assert "broker share of CPU load" in out
        assert "transfer" in out

    def test_run_is_the_sweeps_point(self, capsys):
        argv = ["run", "--peers", "20", "--days", "0.5", "--renewal-days", "0.2", "--seed", "3"]
        assert main(argv) == 0
        point = run_one(SimConfig(n_peers=20, duration=0.5 * DAY, renewal_period=0.2 * DAY, seed=3))
        assert f"[simulated 0.5 days, {point['events']:,} events in " in capsys.readouterr().out

    def test_run_powerlaw(self, capsys):
        code = main([
            "run", "--peers", "20", "--days", "0.5", "--renewal-days", "0.2",
            "--heterogeneity", "powerlaw",
        ])
        assert code == 0
        assert "policy=I" in capsys.readouterr().out

    def test_run_policy_variants(self, capsys):
        for policy in ("II.a", "III", "I.layered"):
            code = main([
                "run", "--peers", "20", "--days", "0.3", "--renewal-days", "0.15",
                "--policy", policy,
            ])
            assert code == 0
            assert f"policy={policy}" in capsys.readouterr().out


class TestCryptoCommand:
    def test_crypto_timing(self, capsys):
        code = main(["crypto", "--bits", "512", "--iterations", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "DSA 512-bit key generation" in out
        assert "Table 2" in out


class TestParsing:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--policy", "IV"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["teleport"])


class TestFiguresCommand:
    def test_figures_writes_outputs(self, tmp_path, capsys):
        import os

        out_dir = tmp_path / "figs"
        code = main(["figures", "--out", str(out_dir)])
        assert code == 0
        assert "wrote 10 figures" in capsys.readouterr().out
        assert (out_dir / "fig2.csv").exists()
        assert (out_dir / "figures.txt").exists()
