"""A payment process loads what its role needs, and the rest on first use.

DESIGN §1: "numpy only in the simulator hot path".  Importing the protocol
roles — peer, broker, the batching pipeline — and even the simulation
engine's module must leave ``numpy``, ``multiprocessing``,
``concurrent.futures`` and ``ctypes`` unloaded; each arrives with the first
object that needs it (``ctypes`` with the first exponentiation, which loads
the libcrypto kernel).  Runs in a child interpreter: this one has long since imported
all three (pytest, hypothesis, the other tests).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

CHILD = """
import json, sys
from dataclasses import replace

WATCHED = ("numpy", "multiprocessing", "concurrent.futures", "ctypes")
steps = {}

def note(step):
    steps[step] = [name for name in WATCHED if name in sys.modules]

import repro.core.peer, repro.core.broker, repro.pipeline, repro.sim.engine
note("roles imported")

from repro.core.network import WhoPayNetwork
from repro.crypto.params import PARAMS_TEST_512
from repro.pipeline import VerificationPool
from repro.sim.config import SimConfig
from repro.sim.engine import build_simulation
from repro.sim.runner import run_sweep_parallel, shutdown_pool

net = WhoPayNetwork(params=PARAMS_TEST_512)
alice = net.add_peer("alice")
pool_args = (net.params, net.broker.public_key, [net.judge.group_public_key()])
VerificationPool(*pool_args).close()
tiny = SimConfig(n_peers=12, duration=20_000.0, renewal_period=8_000.0)
note("a network, a verification pool")

build_simulation(tiny, "fast")
note("fast engine built")

run_sweep_parallel([replace(tiny, seed=seed) for seed in (1, 2)], max_workers=2)
shutdown_pool()
note("parallel sweep run")
print(json.dumps(steps))
"""


def test_each_heavy_module_arrives_with_its_first_user():
    env = dict(os.environ, PYTHONPATH=str(SRC), WHOPAY_WORKERS="2")
    env.pop("WHOPAY_NUMPY", None)
    done = subprocess.run(
        [sys.executable, "-c", CHILD], capture_output=True, text=True, timeout=300, env=env
    )
    assert done.returncode == 0, done.stderr
    steps = json.loads(done.stdout.strip().splitlines()[-1])
    numpy = ["numpy"] if importlib.util.find_spec("numpy") is not None else []
    assert steps == {
        "roles imported": [],
        "a network, a verification pool": ["ctypes"],
        "fast engine built": numpy + ["ctypes"],
        "parallel sweep run": numpy + ["multiprocessing", "concurrent.futures", "ctypes"],
    }
