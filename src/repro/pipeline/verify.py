"""Verification worker pool: batch the crypto, isolate the forgeries.

Verifying a downtime request costs one group-signature check plus three
DSA checks; all four have randomized batch forms that amortize to a small
fraction of the scalar cost.  The pool runs those batch verifiers over
chunks of raw request bytes — in the calling process (``workers=0``) or
across forked worker processes — and reports one verdict per request.

The verdicts feed :meth:`repro.core.broker.Broker.mark_preverified`: the
broker skips re-running the *cryptographic* checks for requests the pool
vouched for (keyed by the SHA-256 of the exact bytes, consumed on first
use) while still running every state check itself.  The inline pool also
hands back the :class:`~repro.core.protocol.HolderRequest` it opened for
each holder job, so the broker does not decode the same bytes a second
time; forked workers hand back verdicts only.  A pool rejection is
deliberately non-fatal — the request simply arrives at the broker without
the mark, the broker re-runs the full scalar checks, and its error message
names the precise failure.  The pool is a pure accelerator: admitting or
rejecting the wrong request changes latency, never the outcome.

Isolation on batch failure: a randomized batch check rejects the whole
batch when any member is forged.  Both layers here fall back to scalar
verification of each batch member, so one forged signature costs one
batch-sized re-check and honest requests in the same batch still pass.

Worker processes are primed once at fork time with the shared parameters
and a serialized copy of the parent's precomputed fixed-base tables
(:func:`repro.crypto.fastexp.export_cache`), so no worker pays the
table-build cost per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.core import protocol
from repro.core.errors import ProtocolError
from repro.crypto import fastexp
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


@dataclass(frozen=True)
class _PoolState:
    """Everything a verifier needs, reconstructed once per worker."""

    params: DlogParams
    broker_key: PublicKey
    gpks: dict[int, GroupPublicKey]


def _build_state(spec: tuple[DlogParams, int, tuple[tuple[int, int, tuple[int, ...]], ...]]) -> _PoolState:
    params, broker_y, gpk_rows = spec
    gpks = {
        version: GroupPublicKey(
            params=params,
            opening_key=PublicKey(params=params, y=opening_y),
            roster=tuple(roster),
            version=version,
        )
        for version, opening_y, roster in gpk_rows
    }
    return _PoolState(
        params=params, broker_key=PublicKey(params=params, y=broker_y), gpks=gpks
    )


# Per-worker-process verifier state, set once by the pool initializer.
_WORKER_STATE: _PoolState | None = None


def _init_worker(
    spec: tuple[DlogParams, int, tuple[tuple[int, int, tuple[int, ...]], ...]],
    cache_blob: bytes,
) -> None:
    """Pool initializer: rebuild verifier state and install shared tables."""
    global _WORKER_STATE
    _WORKER_STATE = _build_state(spec)
    if cache_blob:
        fastexp.install_cache(cache_blob)


def _verify_chunk(chunk: list[tuple[str, bytes]]) -> list[bool]:
    """Worker entry point: verdicts for one chunk of ``(job, data)`` pairs."""
    assert _WORKER_STATE is not None, "worker used before initialization"
    return _verify_jobs(_WORKER_STATE, chunk)


def _verify_jobs(
    state: _PoolState,
    chunk: Sequence[tuple[str, bytes]],
    opened: dict[int, protocol.HolderRequest] | None = None,
) -> list[bool]:
    """Batch-verify a chunk; scalar fallback isolates any bad signature.

    Given ``opened``, each holder request that opened is left there under
    its job's index.

    Structural failures (malformed encodings, wrong signer, unknown roster)
    are plain ``False`` verdicts — the broker will re-derive the precise
    error.  Signature checks are collected into one group-signature batch
    per roster version plus one DSA batch for everything else; a failing
    batch is re-checked member by member so only the forged requests lose
    their verdict.
    """
    results = [False] * len(chunk)
    group_items: dict[int, list[tuple[int, bytes, GroupSignature]]] = {}
    dsa_items: list[tuple[int, tuple[PublicKey, bytes, DsaSignature]]] = []
    for index, (job, data) in enumerate(chunk):
        try:
            if job == JOB_HOLDER:
                request = protocol.open_holder_request(data, state.params)
                envelope, coin, proof = request.envelope, request.coin, request.proof
                if (
                    envelope.roster_version not in state.gpks
                    or coin.cert.signer.y != state.broker_key.y
                    or not proof.verify_unsigned(coin.coin_public_key(state.params), state.broker_key)
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
                signed = protocol.decode_signed(data, state.params)
                results[index] = True
                dsa_items.append(
                    (index, (signed.signer, signed.payload_bytes, signed.signature))
                )
        except (ProtocolError, ValueError, KeyError, TypeError):
            continue
    for version, entries in group_items.items():
        gpk = state.gpks[version]
        if not group_batch_verify(gpk, [(message, sig) for _, message, sig in entries]):
            for index, message, sig in entries:
                if not group_verify(gpk, message, sig):
                    results[index] = False
    if dsa_items and not dsa_batch_verify([item for _, item in dsa_items]):
        for index, (signer, payload, signature) in dsa_items:
            if not dsa_verify(signer, payload, signature):
                results[index] = False
    return results


class VerificationPool:
    """Drains ``(job, data)`` envelopes into batched signature verification.

    ``workers=0`` verifies inline in the calling process (still batched —
    on a single-core host this is the fastest configuration, since it skips
    inter-process pickling).  ``workers>=1`` forks that many worker
    processes, each primed by :func:`_init_worker` with the group rosters,
    the broker key, and the parent's exported fixed-base table cache.
    """

    def __init__(
        self,
        params: DlogParams,
        broker_key: PublicKey,
        gpks: Sequence[GroupPublicKey],
        workers: int = 0,
        chunk_size: int = 32,
        share_tables: bool = True,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.workers = workers
        self.chunk_size = chunk_size
        self.jobs_verified = 0
        spec = (
            params,
            broker_key.y,
            tuple(
                (gpk.version, gpk.opening_key.y, tuple(gpk.roster)) for gpk in gpks
            ),
        )
        #: Size of the serialized fixed-base cache shipped to workers.
        self.cache_blob_bytes = 0
        self._pool: Any = None
        self._state: _PoolState | None = None
        if workers > 0:
            import multiprocessing  # only a forking pool pays for it

            blob = fastexp.export_cache() if share_tables else b""
            self.cache_blob_bytes = len(blob)
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else methods[0]
            )
            self._pool = context.Pool(
                workers, initializer=_init_worker, initargs=(spec, blob)
            )
        else:
            self._state = _build_state(spec)

    def verify(
        self,
        jobs: Sequence[tuple[str, bytes]],
        opened: dict[int, protocol.HolderRequest] | None = None,
    ) -> list[bool]:
        """One verdict per job, in order.  ``True`` = all signatures valid.

        The inline pool fills ``opened`` (job index -> the holder request it
        opened); forked workers leave it empty and the broker parses.
        """
        if not jobs:
            return []
        self.jobs_verified += len(jobs)
        if self._pool is None:
            assert self._state is not None
            return _verify_jobs(self._state, jobs, opened)
        chunks = [
            list(jobs[start : start + self.chunk_size])
            for start in range(0, len(jobs), self.chunk_size)
        ]
        verdicts: list[bool] = []
        for chunk_result in self._pool.map(_verify_chunk, chunks):
            verdicts.extend(chunk_result)
        return verdicts

    def close(self) -> None:
        """Shut the worker processes down (no-op in inline mode)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "VerificationPool":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()
