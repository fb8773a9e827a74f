"""Verification pool: batch the crypto, isolate the forgeries.

A downtime request carries one group signature and three DSA signatures;
the pool folds every signature of a batch of raw requests into one
randomized small-exponent test (:func:`repro.crypto.dsa.dsa_batch_verify`
with its ``groups``), in the calling process.

It is the broker's only signature checker: every broker owns one (keyed by
its judge's live roster snapshots), asked once per request that arrives
alone and once per :class:`~repro.pipeline.engine.ThroughputEngine` window.
Each request gets a :class:`Verdict` — what the pool opened and one flag
per signature — from which the handlers name a failed signature.

When the fold fails (it has already asked the exact verifiers, so a
signature really is bad), each signature is re-checked on its own: honest
requests in the same batch keep their flags.

There are no worker processes: the engine blocks on each batch, so a
forked verifier was the same serial work plus pickling and a second decode
in the broker, and measured no faster at any worker count
(docs/THROUGHPUT.md, "Why verification is inline").
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.core import protocol
from repro.core.errors import ProtocolError
from repro.core.protocol import JOB_HOLDER, JOB_PURCHASE
from repro.crypto.dsa import DsaSignature, dsa_batch_verify, dsa_verify
from repro.crypto.group_signature import GroupPublicKey, GroupSignature, group_verify
from repro.crypto.keys import PublicKey
from repro.crypto.params import DlogParams

@dataclass
class Verdict:
    """One job's answer: what the pool opened (``None``: nothing), whether
    the group signature verifies (``False`` without a key for its roster
    version) and one flag per DSA signature, in ``dsa_triples()`` order."""

    request: Any = None
    group: bool = True
    dsa: list[bool] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Opened, and every signature verifies."""
        return self.request is not None and self.group and all(self.dsa)


class VerificationPool:
    """Drains ``(job, data)`` envelopes into batched signature verification.

    ``gpks`` is either the group public keys to accept or a mapping from
    roster version to key (a broker's own pool reads its judge's live
    snapshots, :attr:`repro.core.judge.Judge.verification_keys`).
    """

    def __init__(
        self,
        params: DlogParams,
        broker_key: PublicKey,
        gpks: Sequence[GroupPublicKey] | Mapping[int, GroupPublicKey],
        # The frozen harness (benchmarks/e2e/workloads.py) still passes these
        # two; a later ``benchmark`` PR drops them there and then from here.
        workers: int = 0,
        chunk_size: int = 32,
    ) -> None:
        if workers != 0:
            raise ValueError("verification is inline: workers must be 0")
        self.params = params
        self.broker_key = broker_key
        self.gpks = gpks if isinstance(gpks, Mapping) else {gpk.version: gpk for gpk in gpks}
        #: The broker's downtime bindings by coin (its own pool reads them): a
        #: ``via_broker`` proof of a coin here is compared with its binding
        #: bit by bit (Section 4.2), so its signature is not checked.
        self.held_bindings: Mapping[int, Any] = {}
        self.jobs_verified = 0

    def verify(
        self,
        jobs: Sequence[tuple[str, bytes]],
        verdicts: list[Verdict] | None = None,
    ) -> list[bool]:
        """Whether every signature of each job verifies, in order; given
        ``verdicts``, it is extended with each job's :class:`Verdict`."""
        self.jobs_verified += len(jobs)
        found = [Verdict() for _ in jobs]
        group_items: dict[int, tuple[GroupPublicKey, list[tuple[int, bytes, GroupSignature]]]] = {}
        dsa_items: list[tuple[int, int, tuple[PublicKey, bytes, DsaSignature]]] = []
        for index, (job, data) in enumerate(jobs):
            verdict = found[index]
            compared = -1  # the slot of a signature the broker's state stands in for
            try:
                if job == JOB_HOLDER:
                    request = protocol.open_holder_request(data, self.params)
                    triples = request.dsa_triples()
                    if request.proof.via_broker and request.coin.coin_y in self.held_bindings:
                        compared = 2
                    envelope = request.envelope
                    try:
                        gpk = self.gpks[envelope.roster_version]
                    except KeyError:
                        verdict.group = False
                    else:
                        group_items.setdefault(envelope.roster_version, (gpk, []))[1].append(
                            (index, envelope.inner.encode(), envelope.group_signature)
                        )
                else:
                    request = protocol.decode_signed(data, self.params)
                    triples = [request.triple]
            except (ProtocolError, ValueError, KeyError, TypeError):
                continue
            verdict.request = request
            verdict.dsa = [True] * len(triples)
            dsa_items.extend(
                (index, slot, triple) for slot, triple in enumerate(triples) if slot != compared
            )
        groups = [
            (gpk, [(message, sig) for _, message, sig in entries])
            for gpk, entries in group_items.values()
        ]
        batch = [triple for _, _, triple in dsa_items]
        if groups or len(batch) > 1:
            passed = dsa_batch_verify(batch, groups=groups)
        else:  # a fold of one signature costs more than its exact check
            passed = all(dsa_verify(*triple) for triple in batch)
        if not passed:
            for gpk, entries in group_items.values():
                for index, message, sig in entries:
                    if not group_verify(gpk, message, sig):
                        found[index].group = False
            for index, slot, triple in dsa_items:
                if not dsa_verify(*triple):
                    found[index].dsa[slot] = False
        if verdicts is not None:
            verdicts.extend(found)
        return [verdict.ok for verdict in found]

    def close(self) -> None:
        """Nothing to release; kept so callers can scope a pool with ``with``."""

    def __enter__(self) -> "VerificationPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
