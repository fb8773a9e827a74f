"""Verification pool: batched verdicts, forgery isolation.

The ISSUE-6 regression target lives here: one forged signature inside a
verification batch must be isolated by the scalar fallback — its verdict
(and only its verdict) goes ``False`` while every honest batch-mate still
passes.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import protocol
from repro.crypto.params import PARAMS_TEST_512
from repro.pipeline import JOB_HOLDER, JOB_PURCHASE, LoadGenerator, VerificationPool
from repro.pipeline.loadgen import WorkloadMix


@pytest.fixture(scope="module")
def workload():
    """One mixed round of real signed requests, plus the pool inputs.

    3 peers x 2 coins with a transfer-only mix: the first 6 requests are
    dual-signed holder transfers, and once every coin is used the
    generator falls back to identity-signed purchases — so the same round
    exercises both job kinds.
    """
    generator = LoadGenerator(
        peers=3,
        coins_per_peer=2,
        params=PARAMS_TEST_512,
        seed=23,
        mix=WorkloadMix(transfer=1.0, renewal=0.0, purchase=0.0),
    )
    requests = generator.make_round(8)
    return generator, requests


def _jobs(requests):
    return [
        (JOB_PURCHASE if r.kind == protocol.PURCHASE else JOB_HOLDER, r.data)
        for r in requests
    ]


def _forge_group_signature(data: bytes, params) -> bytes:
    """A well-formed dual envelope whose group signature is invalid."""
    envelope = protocol.decode_dual(data, params)
    sig = envelope.group_signature
    forged = replace(sig, responses_r=(sig.responses_r[0] ^ 1,) + sig.responses_r[1:])
    return protocol.encode_dual(replace(envelope, group_signature=forged))


def _forge_dsa_signature(data: bytes, params) -> bytes:
    """A well-formed purchase envelope whose DSA signature is invalid."""
    signed = protocol.decode_signed(data, params)
    return replace(signed, signature=replace(signed.signature, s=signed.signature.s ^ 1)).encode()


class TestInlinePool:
    def _pool(self, generator, **kwargs):
        return VerificationPool(
            generator.params, generator.broker.public_key, [generator._gpk], **kwargs
        )

    def test_honest_round_all_pass(self, workload):
        generator, requests = workload
        jobs = _jobs(requests)
        assert {job for job, _ in jobs} == {JOB_HOLDER, JOB_PURCHASE}
        with self._pool(generator) as pool:
            assert pool.verify(jobs) == [True] * len(jobs)
            assert pool.jobs_verified == len(jobs)

    def test_forged_group_signature_is_isolated(self, workload):
        # The regression: the forged member trips the randomized group
        # batch, the scalar fallback pins the failure to that one index,
        # and every honest request in the same batch keeps its verdict.
        generator, requests = workload
        jobs = _jobs(requests)
        victim = 0
        assert jobs[victim][0] == JOB_HOLDER
        jobs[victim] = (JOB_HOLDER, _forge_group_signature(jobs[victim][1], generator.params))
        with self._pool(generator) as pool:
            verdicts = pool.verify(jobs)
        assert verdicts[victim] is False
        assert all(verdicts[i] for i in range(len(jobs)) if i != victim)

    def test_forged_dsa_signature_is_isolated(self, workload):
        # Same isolation through the DSA batch layer (purchase requests
        # carry only the identity signature, no group layer).
        generator, requests = workload
        jobs = _jobs(requests)
        victim = next(i for i, (job, _) in enumerate(jobs) if job == JOB_PURCHASE)
        jobs[victim] = (JOB_PURCHASE, _forge_dsa_signature(jobs[victim][1], generator.params))
        with self._pool(generator) as pool:
            verdicts = pool.verify(jobs)
        assert verdicts[victim] is False
        assert all(verdicts[i] for i in range(len(jobs)) if i != victim)

    def test_malformed_bytes_fail_without_contaminating_neighbors(self, workload):
        generator, requests = workload
        jobs = _jobs(requests)
        jobs[1] = (jobs[1][0], b"not an envelope")
        with self._pool(generator) as pool:
            verdicts = pool.verify(jobs)
        assert verdicts[1] is False
        assert all(verdicts[i] for i in range(len(jobs)) if i != 1)

    def test_unknown_roster_version_is_rejected(self, workload):
        generator, requests = workload
        jobs = _jobs(requests)
        envelope = protocol.decode_dual(jobs[0][1], generator.params)
        stale = replace(envelope, roster_version=envelope.roster_version + 7)
        jobs[0] = (JOB_HOLDER, protocol.encode_dual(stale))
        with self._pool(generator) as pool:
            assert pool.verify(jobs)[0] is False

    def test_empty_input_and_bad_config(self, workload):
        generator, _requests = workload
        with self._pool(generator) as pool:
            assert pool.verify([]) == []
        with pytest.raises(ValueError):
            self._pool(generator, workers=1)  # verification is inline
