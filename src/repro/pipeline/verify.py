"""Verification pool: batch the crypto, isolate the forgeries.

Verifying a downtime request costs one group-signature check plus three
DSA checks; all four have randomized batch forms that amortize to a small
fraction of the scalar cost.  The pool runs those batch verifiers over a
batch of raw request bytes, in the calling process, and reports one
verdict per request.

The verdicts feed :meth:`repro.core.broker.Broker.mark_preverified`: the
broker skips re-running the *cryptographic* checks for requests the pool
vouched for (keyed by the SHA-256 of the exact bytes, consumed on first
use) while still running every state check itself.  The pool also hands
back the :class:`~repro.core.protocol.HolderRequest` it opened for each
holder job, so the broker does not decode the same bytes a second time.
A pool rejection is deliberately non-fatal — the request simply arrives at
the broker without the mark, the broker re-runs the full scalar checks,
and its error message names the precise failure.  The pool is a pure
accelerator: admitting or rejecting the wrong request changes latency,
never the outcome.

Isolation on batch failure: a randomized batch check rejects the whole
batch when any member is forged.  Both layers here fall back to scalar
verification of each batch member, so one forged signature costs one
batch-sized re-check and honest requests in the same batch still pass.

There are no worker processes: the engine blocks on each batch, so a
forked verifier was the same serial work plus pickling and a second decode
in the broker, and measured no faster at any worker count
(docs/THROUGHPUT.md, "Why verification is inline").
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core import protocol
from repro.core.errors import ProtocolError
from repro.crypto.dsa import DsaSignature, dsa_batch_verify, dsa_verify
from repro.crypto.group_signature import (
    GroupPublicKey,
    GroupSignature,
    group_batch_verify,
    group_verify,
)
from repro.crypto.keys import PublicKey
from repro.crypto.params import DlogParams

#: Job kinds: dual-signed holder operations (deposit, downtime transfer,
#: downtime renewal, top-up) vs identity-signed purchase requests.
JOB_HOLDER = "holder"
JOB_PURCHASE = "purchase"


class VerificationPool:
    """Drains ``(job, data)`` envelopes into batched signature verification."""

    def __init__(
        self,
        params: DlogParams,
        broker_key: PublicKey,
        gpks: Sequence[GroupPublicKey],
        # The frozen harness (benchmarks/e2e/workloads.py) still passes these
        # two; a later ``benchmark`` PR drops them there and then from here.
        workers: int = 0,
        chunk_size: int = 32,
    ) -> None:
        if workers != 0:
            raise ValueError("verification is inline: workers must be 0")
        self.params = params
        self.broker_key = broker_key
        self.gpks = {gpk.version: gpk for gpk in gpks}
        self.jobs_verified = 0

    def verify(
        self,
        jobs: Sequence[tuple[str, bytes]],
        opened: dict[int, protocol.HolderRequest] | None = None,
    ) -> list[bool]:
        """One verdict per job, in order.  ``True`` = all signatures valid.

        Given ``opened``, each holder request that opened is left there under
        its job's index.

        Structural failures (malformed encodings, wrong signer, unknown roster)
        are plain ``False`` verdicts — the broker will re-derive the precise
        error.  Signature checks are collected into one group-signature batch
        per roster version plus one DSA batch for everything else; a failing
        batch is re-checked member by member so only the forged requests lose
        their verdict.
        """
        self.jobs_verified += len(jobs)
        results = [False] * len(jobs)
        group_items: dict[int, list[tuple[int, bytes, GroupSignature]]] = {}
        dsa_items: list[tuple[int, tuple[PublicKey, bytes, DsaSignature]]] = []
        for index, (job, data) in enumerate(jobs):
            try:
                if job == JOB_HOLDER:
                    request = protocol.open_holder_request(data, self.params)
                    envelope, coin, proof = request.envelope, request.coin, request.proof
                    if (
                        envelope.roster_version not in self.gpks
                        or coin.cert.signer.y != self.broker_key.y
                        or not proof.verify_unsigned(coin.coin_public_key(self.params), self.broker_key)
                    ):
                        continue
                    results[index] = True  # provisional; revoked on signature failure
                    if opened is not None:
                        opened[index] = request
                    group_items.setdefault(envelope.roster_version, []).append(
                        (index, envelope.inner.encode(), envelope.group_signature)
                    )
                    # All three DSA signatures, unconditionally: the broker only
                    # checks the proof binding's on the fresh-binding flavour;
                    # checking it always is strictly stronger (a stored
                    # via_broker binding carries a valid broker signature, so
                    # honest requests are unaffected).
                    dsa_items.extend((index, triple) for triple in request.dsa_triples())
                elif job == JOB_PURCHASE:
                    signed = protocol.decode_signed(data, self.params)
                    results[index] = True
                    dsa_items.append(
                        (index, (signed.signer, signed.payload_bytes, signed.signature))
                    )
            except (ProtocolError, ValueError, KeyError, TypeError):
                continue
        for version, entries in group_items.items():
            gpk = self.gpks[version]
            if not group_batch_verify(gpk, [(message, sig) for _, message, sig in entries]):
                for index, message, sig in entries:
                    if not group_verify(gpk, message, sig):
                        results[index] = False
        if dsa_items and not dsa_batch_verify([item for _, item in dsa_items]):
            for index, (signer, payload, signature) in dsa_items:
                if not dsa_verify(signer, payload, signature):
                    results[index] = False
        return results

    def close(self) -> None:
        """Nothing to release; kept so callers can scope a pool with ``with``."""

    def __enter__(self) -> "VerificationPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
