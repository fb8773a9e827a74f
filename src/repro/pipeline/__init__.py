"""Broker-side payment throughput pipeline.

The paper sizes the broker by how many downtime operations per second it
can absorb (Figures 6, 10).  This package is the engineering answer for
the real-crypto stack: it decomposes a broker's request loop into the
three stages that dominate cost and batches each one.

* :mod:`repro.pipeline.verify` — a verification pool that drains request
  envelopes into batches and runs the randomized batch verifiers
  (:func:`repro.crypto.dsa.dsa_batch_verify`,
  :func:`repro.crypto.group_signature.group_batch_verify`), falling back
  to scalar checks to isolate bad signatures;
* :mod:`repro.pipeline.engine` — the serial broker stage: state checks and
  journaling, with replies released only after a covering group-commit
  fsync (:class:`repro.store.groupcommit.GroupCommitter`);
* :mod:`repro.pipeline.loadgen` — a workload generator that drives many
  peers' transfers, renewals and purchases through the real protocol
  encoders with Zipf-skewed coin popularity.

``benchmarks/bench_throughput.py`` wires the three together and sweeps
batch sizes against the one-fsync-per-request scalar baseline.
"""

from repro.pipeline.engine import EngineStats, ReplyRecord, ThroughputEngine
from repro.pipeline.loadgen import LoadGenerator, Request, WorkloadMix
from repro.pipeline.verify import JOB_HOLDER, JOB_PURCHASE, VerificationPool

__all__ = [
    "EngineStats",
    "JOB_HOLDER",
    "JOB_PURCHASE",
    "LoadGenerator",
    "ReplyRecord",
    "Request",
    "ThroughputEngine",
    "VerificationPool",
    "WorkloadMix",
]
