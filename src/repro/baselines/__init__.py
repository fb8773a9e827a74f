"""Protocol-level implementations of the systems the paper compares against.

* :mod:`repro.baselines.ppay` — PPay (Yang & Garcia-Molina, CCS 2003;
  paper Section 3.1): scalable like WhoPay but with owner *and* holder
  identities exposed in every coin.  The scalability baseline.
* :mod:`repro.baselines.centralized` — a Burk–Pfitzmann / Vo–Hohenberger
  style online-transfer system where every transfer goes through the broker
  (paper Section 7): anonymous and fair but centralized.  The anonymity
  baseline.

Every figure and ablation takes its baseline numbers from the
operation-level model in :mod:`repro.sim.baseline_sim`, not from these
classes; they stay as executable statements of the two protocols until
they are measured against that model.
"""

from repro.baselines.centralized import CentralizedBroker, CentralizedPeer
from repro.baselines.ppay import PPayBroker, PPayPeer

__all__ = [
    "PPayBroker",
    "PPayPeer",
    "CentralizedBroker",
    "CentralizedPeer",
]
