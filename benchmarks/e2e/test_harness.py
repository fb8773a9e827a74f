"""Self-test of the benchmark harness (``pytest benchmarks/e2e -q``, < 30 s).

Outside tier-1 ``testpaths`` on purpose: it tests the yardstick, not the
program.  Workloads run here at a few units with one set-up and one warm-up
cycle; the numbers are meaningless, the gates and the counts are not.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CONTRACT = json.loads((run.REPO / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink set-up and the simulator's unit so a workload takes a second."""
    for name, entry in workloads.WORKLOADS.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, dataclasses.replace(entry, setup_repeats=1))
    monkeypatch.setattr(workloads, "WARMUP_CYCLES", 1)
    monkeypatch.setattr(workloads, "SIM_SLICE_EVENTS", 200_000)
    monkeypatch.setattr(workloads, "SIM_WARMUP_EVENTS", 50_000)


# -- the contract ------------------------------------------------------------


def test_contract_names_what_the_harness_emits():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] == list(layers.PER_LAYER)
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "peer_ops_m1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- every workload passes its gate ------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_passes_its_gate(small, name):
    units = 1 if name == "broker_batch" else 2
    entry = run.run_workload(name, seed=3, seconds=600.0, trace=0, max_units=units)
    assert entry["gate_failures"] == []
    assert entry["correct"] and entry["failed"] == 0 and entry["attempted"] >= 1
    assert set(entry["metrics"]) == {name for name, _unit, _better in run.END_TO_END}
    assert all(metric["value"] > 0 for metric in entry["metrics"].values())
    assert not any(run.WORK.glob(f"{name}-*")), "journals are removed after the run"


def test_gate_notices_lost_value(small, tmp_path):
    workload = workloads.WORKLOADS["peer_ops_m1"].build(5, tmp_path)
    workload.run_unit()
    assert workload.gate() == []
    workload.peers[0].purchase()  # a coin bought and never deposited
    assert any("coins_minted" in failure for failure in workload.gate())


# -- same seed, same counts --------------------------------------------------


def test_counts_repeat_exactly_for_a_seed(small):
    """m3 is the hard case: shard placement, and so handoffs, follow the keys."""
    first, second = (
        run.run_workload("peer_ops_m3", seed=11, seconds=600.0, trace=1, max_units=3)
        for _ in range(2)
    )
    assert set(first["metrics"]) == {name for name, _unit, _better in layers.PER_LAYER}
    exact = [
        name for name, unit, _better in layers.PER_LAYER
        if unit in ("count", "B") and not name.startswith("sim.")
    ]
    assert {name: first["metrics"][name]["value"] for name in exact} == {
        name: second["metrics"][name]["value"] for name in exact
    }
    assert first["metrics"]["core.handoffs_per_op"]["value"] > 0
    assert first["metrics"]["crypto.group_sign.calls_per_op"]["value"] == pytest.approx(6 / 9)
    other = run.run_workload("peer_ops_m3", seed=12, seconds=600.0, trace=1, max_units=3)
    assert other["metrics"]["net.transport.bytes_per_op"] != first["metrics"]["net.transport.bytes_per_op"]


def test_seeded_entropy_restores_the_os_generator():
    import secrets

    originals = (secrets.randbelow, secrets.token_bytes)
    with workloads.seeded_entropy(1):
        a = (secrets.randbelow(1 << 64), secrets.token_hex(4), secrets.token_bytes())
    with workloads.seeded_entropy(1):
        b = (secrets.randbelow(1 << 64), secrets.token_hex(4), secrets.token_bytes())
    assert a == b and len(a[2]) == 32
    assert (secrets.randbelow, secrets.token_bytes) == originals


# -- the tracer --------------------------------------------------------------


class FakeClock:
    """Each reading is one tick later than the last."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class Layered:
    def outer(self):
        return self.inner() + self.inner()

    def inner(self):
        return 1

    @classmethod
    def make(cls):
        return cls()

    def boom(self):
        raise ValueError("boom")


def test_spans_nest_and_self_time_is_duration_minus_children():
    with Tracer(clock=FakeClock()) as tracer:
        tracer.wrap_method(Layered, "outer", "a.outer")
        tracer.wrap_method(Layered, "inner", "b.inner", weight=lambda args, kwargs: 5)
        assert Layered().outer() == 2
    names = [span[0] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["a.outer", "b.inner", "b.inner"]
    assert parents == [-1, 0, 0]
    # Clock ticks: outer 1..6, inner 2..3 and 4..5.
    summary = tracer.summarize()
    assert summary["a.outer"].total == 5.0 and summary["a.outer"].self_time == 3.0
    assert summary["b.inner"].calls == 2 and summary["b.inner"].total == 2.0
    assert summary["b.inner"].weight == 10
    assert sum(agg.self_time for agg in summary.values()) == summary["a.outer"].total
    assert tracer.summarize(["b.*"]) == {}  # no root span is named b.*
    assert set(tracer.summarize(["a.*"])) == {"a.outer", "b.inner"}


def test_a_name_function_can_skip_or_rename_a_call():
    with Tracer(clock=FakeClock()) as tracer:
        tracer.wrap_method(Layered, "inner", lambda args, kwargs: None)
        tracer.wrap_method(Layered, "outer", lambda args, kwargs: "renamed")
        Layered().outer()
    assert [span[0] for span in tracer.spans] == ["renamed"]


def test_unpatching_is_exception_safe_and_restores_the_very_objects():
    import repro.messages.codec as codec
    import repro.store.journal as journal

    before = (Layered.__dict__["outer"], Layered.__dict__["make"], Layered.__dict__["boom"],
              codec.encode, journal.encode)
    assert journal.encode is codec.encode
    with pytest.raises(ValueError):
        with Tracer() as tracer:
            tracer.wrap_method(Layered, "outer", "x.outer")
            tracer.wrap_method(Layered, "make", "x.make")
            tracer.wrap_method(Layered, "boom", "x.boom")
            tracer.wrap_function(codec, "encode", "x.encode")
            # Re-bound wherever it was imported, not just where it lives.
            assert journal.encode is codec.encode and codec.encode is not before[3]
            assert isinstance(Layered.make(), Layered)
            journal.encode({"k": 1})
            Layered().boom()
    after = (Layered.__dict__["outer"], Layered.__dict__["make"], Layered.__dict__["boom"],
             codec.encode, journal.encode)
    assert all(now is then for now, then in zip(after, before))
    # The failing call still closed its span.
    assert [span[0] for span in tracer.spans] == ["x.make", "x.encode", "x.boom"]
    assert all(span[2] >= span[1] for span in tracer.spans)


def test_every_layer_callable_is_restored_after_instrumenting():
    import os

    import repro.crypto.dsa as dsa
    from repro.core.peer import Peer
    from repro.net.node import Node

    before = (os.fsync, dsa.dsa_sign, Peer.__dict__["purchase"], Node.__dict__["handle"])
    with Tracer() as tracer:
        layers.instrument(tracer)
        assert os.fsync is not before[0] and Peer.__dict__["purchase"] is not before[2]
    after = (os.fsync, dsa.dsa_sign, Peer.__dict__["purchase"], Node.__dict__["handle"])
    assert all(now is then for now, then in zip(after, before))


def test_counted_callables_are_keyed_by_their_root_span():
    import repro.crypto.fastexp as fastexp

    def use(_self):
        return fastexp.is_member(4, 11, 23)

    holder = type("Holder", (), {"timed": use, "untimed": use})
    with Tracer() as tracer:
        tracer.wrap_method(holder, "timed", "root.timed")
        tracer.wrap_method(holder, "untimed", "root.untimed")
        tracer.count_function(fastexp, "is_member", "c.is_member")
        holder().timed()
        holder().timed()
        holder().untimed()
        fastexp.is_member(4, 11, 23)  # under no span: not counted
    assert tracer.count_totals(["root.timed"]) == {"c.is_member": 2}
    assert tracer.count_totals() == {"c.is_member": 3}
