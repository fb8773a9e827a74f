"""Operation-level discrete-event simulator (paper Section 6).

The paper evaluates WhoPay by simulating the *operation mix* — not the
cryptography — under peer churn, and then weighting operation counts by the
measured/assumed micro-operation costs of Tables 2 and 3.  This package is
that methodology, faithfully:

* :mod:`repro.sim.config` — the Table 1 setups (A: 1000 peers, µ swept from
  15 min to 32 h; B: 100–1000 peers at 50% availability) plus scaled-down
  presets for CI-speed benchmarking.
* :mod:`repro.sim.policies` — payment-method preference orders: Policy I
  (user-centric), II.a/II.b (middle grounds), III (broker-centric).
* :mod:`repro.sim.costs` — micro-operation counts per coarse operation and
  the Table 3 relative CPU weights; message counts for communication load.
* :mod:`repro.sim.simulator` — the reference event loop: exponential on/off
  sessions, per-peer Poisson candidate payments (1 per 5 min) thinned by
  payee availability, 3-day renewal period, proactive or lazy
  synchronization.
* :mod:`repro.sim.engine` — the scaling engine (``docs/SIMULATOR.md``):
  the million-peer "fast" engine (struct-of-arrays state, batched
  sampling, optional numpy accelerator), selected via
  :func:`build_simulation`.
* :mod:`repro.sim.metrics` — per-operation counters and the CPU /
  communication load aggregates of Figures 2–11.
* :mod:`repro.sim.runner` — parameter sweeps that produce each figure's
  series (engine selection, process-pool fan-out, profiling hooks).
* :mod:`repro.sim.figures` — one-call regeneration of every figure's data.
* :mod:`repro.sim.baseline_sim` — the same workload driven against PPay and
  a fully centralized system (ablation comparisons).
"""

from repro.sim.config import (
    SimConfig,
    setup_a_configs,
    setup_b_configs,
    setup_b_point,
)
from repro.sim.engine import ENGINES, build_simulation
from repro.sim.metrics import SimMetrics
from repro.sim.policies import POLICY_I, POLICY_II_A, POLICY_II_B, POLICY_III, Policy
from repro.sim.runner import (
    run_availability_sweep,
    run_one,
    run_replicated,
    run_scaling_sweep,
    run_sweep_parallel,
)
from repro.sim.simulator import SimResult, Simulation

__all__ = [
    "SimConfig",
    "setup_a_configs",
    "setup_b_configs",
    "setup_b_point",
    "Policy",
    "POLICY_I",
    "POLICY_II_A",
    "POLICY_II_B",
    "POLICY_III",
    "Simulation",
    "SimResult",
    "SimMetrics",
    "ENGINES",
    "build_simulation",
    "run_one",
    "run_replicated",
    "run_availability_sweep",
    "run_scaling_sweep",
    "run_sweep_parallel",
]
