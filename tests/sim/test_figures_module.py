"""Figure-regeneration module tests."""

import csv
from pathlib import Path

import pytest

from repro.sim.figures import FIGURES, generate_all

pytestmark = pytest.mark.slow  # runs 8 small sweeps (~30 s); still under CI budget


@pytest.fixture(scope="module")
def figures(tmp_path_factory):
    out = tmp_path_factory.mktemp("figs")
    return generate_all(small=True, out_dir=out), out


class TestGenerateAll:
    def test_all_figures_present(self, figures):
        data, _out = figures
        assert set(data) == {f"fig{i}" for i in range(2, 12)}

    def test_series_lengths_consistent(self, figures):
        data, _out = figures
        for figure_id, figure in data.items():
            n = len(figure["x"])
            for label, values in figure["series"].items():
                assert len(values) == n, (figure_id, label)

    def test_setup_b_uses_size_axis(self, figures):
        data, _out = figures
        assert data["fig10"]["x_label"] == "n_peers"
        assert data["fig2"]["x_label"] == "mu_hours"

    def test_csv_files_written(self, figures):
        data, out = figures
        for figure_id in data:
            path = out / f"{figure_id}.csv"
            assert path.exists(), figure_id
            with open(path) as handle:
                rows = list(csv.reader(handle))
            assert len(rows) == len(data[figure_id]["x"]) + 1  # header + points

    def test_report_written(self, figures):
        data, out = figures
        text = (out / "figures.txt").read_text()
        for figure in data.values():
            assert figure["title"] in text

    def test_figure_values_match_csv(self, figures):
        data, out = figures
        with open(out / "fig2.csv") as handle:
            rows = list(csv.reader(handle))
        header, first = rows[0], rows[1]
        column = header.index("purchases")
        assert float(first[column]) == float(data["fig2"]["series"]["purchases"][0])


def test_every_figure_names_a_committed_artefact():
    out = Path(__file__).resolve().parents[2] / "benchmarks" / "out"
    assert [figure_id for figure_id, figure in FIGURES.items() if not (out / f"{figure.artefact}.txt").exists()] == []
