"""Throughput engine semantics: release gating, precise rejections, stats.

The crash-consistency half of the engine contract is exercised in
``tests/store/test_groupcommit.py``; here we pin down the happy path and
the pool/broker interplay — in particular that a pool rejection is
non-fatal (the broker re-verifies and names the precise failure) and that
honest requests sharing a batch with a forgery are unaffected.
"""

from __future__ import annotations

import random
import secrets
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core import protocol
from repro.crypto.params import PARAMS_TEST_512
from repro.pipeline import LoadGenerator, ThroughputEngine, VerificationPool
from repro.pipeline.loadgen import WorkloadMix
from repro.store.groupcommit import GroupCommitter


@pytest.fixture()
def generator(tmp_path):
    return LoadGenerator(
        peers=3,
        coins_per_peer=1,
        params=PARAMS_TEST_512,
        store_dir=tmp_path / "net",
        seed=29,
        mix=WorkloadMix(transfer=1.0, renewal=0.0, purchase=0.0),
    )


def _wire(requests):
    return [(r.kind, r.src, r.data, r.idem) for r in requests]


def _forge_group_signature(data: bytes, params) -> bytes:
    envelope = protocol.decode_dual(data, params)
    sig = envelope.group_signature
    forged = replace(sig, responses_r=(sig.responses_r[0] ^ 1,) + sig.responses_r[1:])
    return protocol.encode_dual(replace(envelope, group_signature=forged))


def _engine(generator, max_batch=4, verify_batch=4):
    pool = VerificationPool(
        generator.params, generator.broker.public_key, [generator._gpk], workers=0
    )
    committer = GroupCommitter(generator.broker.store, max_batch=max_batch)
    return ThroughputEngine(
        generator.broker, pool=pool, committer=committer, verify_batch=verify_batch
    )


class TestHappyPath:
    def test_round_trip_with_pool_and_group_commit(self, generator):
        engine = _engine(generator)
        records, stats = engine.run(_wire(generator.make_round(3)))
        assert stats.processed == stats.accepted == 3
        assert stats.rejected == 0
        assert stats.pool_jobs == 3 and stats.preverified == 3
        assert stats.staged == 3
        assert 1 <= stats.fsyncs < stats.staged  # amortized, not skipped
        assert all(r.ok and r.released and r.durable_lsn is not None for r in records)
        assert generator.absorb(records) == 3
        # The absorbed bindings chain: the next round re-transfers the same
        # coins with the broker-signed (via_broker) bindings.
        records, stats = engine.run(_wire(generator.make_round(3)))
        assert stats.accepted == 3
        assert generator.absorb(records) == 3

    def test_baseline_without_pool_or_committer(self, generator):
        engine = ThroughputEngine(generator.broker, verify_batch=4)
        records, stats = engine.run(_wire(generator.make_round(3)))
        assert stats.accepted == 3 and stats.preverified == 0
        assert stats.fsyncs == stats.staged == 3  # one fsync per request
        assert all(r.ok and r.released for r in records)
        assert generator.absorb(records) == 3

    def test_reply_signing_uses_the_nonce_pool(self, generator):
        engine = _engine(generator)
        records, stats = engine.run(_wire(generator.make_round(3)))
        # All-transfer mix: every accepted reply is a broker-signed binding,
        # so the drain pre-filled exactly one nonce triple per reply.
        assert stats.accepted == 3
        assert stats.nonces_pooled == 3
        assert engine.nonce_pool.served == 3
        assert generator.broker.nonce_pool is engine.nonce_pool
        assert generator.absorb(records) == 3

    def test_stats_merge_accumulates(self, generator):
        engine = _engine(generator)
        total = None
        for _ in range(2):
            records, stats = engine.run(_wire(generator.make_round(2)))
            generator.absorb(records)
            if total is None:
                total = stats
            else:
                total.merge(stats)
        assert total is not None and total.processed == total.accepted == 4


class TestForgedRequestInBatch:
    def test_forgery_rejected_precisely_and_batch_mates_accepted(self, generator):
        # Engine-level regression companion to the pool-level isolation
        # test: the forged request misses the preverified mark, the broker
        # re-runs the scalar checks and rejects with the precise error, and
        # the honest requests verified in the same pool batch all land.
        engine = _engine(generator)
        wire = _wire(generator.make_round(3))
        victim = 1
        kind, src, data, idem = wire[victim]
        wire[victim] = (kind, src, _forge_group_signature(data, generator.params), idem)

        records, stats = engine.run(wire)
        assert stats.processed == 3
        assert stats.accepted == 2 and stats.rejected == 1
        assert stats.preverified == 2  # the pool vouched only for the honest pair
        bad = records[victim]
        assert not bad.ok and bad.released and bad.durable_lsn is None
        assert "signatures invalid" in bad.error
        assert all(r.ok and r.released for i, r in enumerate(records) if i != victim)
        assert generator.absorb(records) == 2


class _VerdictsOnlyPool(VerificationPool):
    """A pool that hands back verdicts and nothing else, so the broker is told
    ``mark_preverified({digest: None})`` and opens every request itself — with
    the same random draws as the pool that hands its requests over."""

    def verify(self, jobs, opened=None):
        return super().verify(jobs)


def _seed_secrets(monkeypatch, seed):
    """Keys, signing nonces and batch multipliers from one seeded stream."""
    rng = random.Random(seed)
    monkeypatch.setattr(secrets, "randbelow", rng.randrange)
    monkeypatch.setattr(secrets, "randbits", rng.getrandbits)
    monkeypatch.setattr(secrets, "token_bytes", rng.randbytes)
    monkeypatch.setattr(secrets, "token_hex", lambda nbytes: rng.randbytes(nbytes).hex())


class TestHandedRequests:
    """The pool hands the broker the requests it opened; a broker that
    opens them itself must not be told apart from outside."""

    def _run(self, monkeypatch, root, pool_class):
        _seed_secrets(monkeypatch, 77)
        generator = LoadGenerator(
            peers=3, coins_per_peer=2, params=PARAMS_TEST_512, store_dir=root, seed=13,
            mix=WorkloadMix(transfer=0.5, renewal=0.3, purchase=0.2),
        )
        opened = []
        real_open = protocol.open_holder_request
        monkeypatch.setattr(
            protocol, "open_holder_request",
            lambda *args: opened.append(len(args)) or real_open(*args),
        )
        wire = _wire(generator.make_round(8))
        transfers = [i for i, (kind, *_rest) in enumerate(wire) if kind == protocol.DOWNTIME_TRANSFER]
        forged, misrouted, replayed = transfers[:3]
        kind, src, data, idem = wire[forged]
        wire[forged] = (kind, src, _forge_group_signature(data, generator.params), idem)
        _kind, src, data, idem = wire[misrouted]
        wire[misrouted] = (protocol.DOWNTIME_RENEWAL, src, data, idem)
        kind, src, data, _idem = wire[replayed]
        wire.append((kind, src, data, "replay-same-window"))
        later = [(kind, src, data, "replay-next-window")]

        pool = pool_class(generator.params, generator.broker.public_key, [generator._gpk])
        committer = GroupCommitter(generator.broker.store, max_batch=4)
        engine = ThroughputEngine(generator.broker, pool=pool, committer=committer, verify_batch=16)
        records, stats = engine.run(wire)
        more, _stats = engine.run(later)
        return SimpleNamespace(
            # accept/reject set, replies, errors and LSNs, in submission order
            outcome=[(r.kind, r.idem, r.ok, r.reply, r.error, r.durable_lsn) for r in records + more],
            journal=generator.broker.store.journal_path.read_bytes(),
            preverified=stats.preverified,
            opened=opened,
            holder_jobs=sum(kind != protocol.PURCHASE for kind, *_rest in wire + later),
            broker=generator.broker,
            forged=forged, misrouted=misrouted, replayed=replayed,
        )

    def test_handed_and_parsed_requests_are_indistinguishable(self, monkeypatch, tmp_path):
        handed = self._run(monkeypatch, tmp_path / "handed", VerificationPool)
        parsed = self._run(monkeypatch, tmp_path / "parsed", _VerdictsOnlyPool)
        assert handed.outcome == parsed.outcome
        assert handed.journal == parsed.journal  # byte for byte
        errors = {index: row[4] for index, row in enumerate(handed.outcome) if not row[2]}
        assert sorted(errors) == [handed.forged, handed.misrouted, 8, 9]
        assert "signatures invalid" in errors[handed.forged]
        assert errors[handed.misrouted] == (
            "ProtocolError: a transfer request cannot be served as whopay.downtime_renewal"
        )
        assert handed.outcome[handed.replayed][2]
        assert errors[8] == errors[9] and errors[8].startswith("NotHolder")
        assert handed.preverified == 7  # nine jobs: one forged, one twice in the window

    def test_each_request_is_opened_once_and_handed_once(self, monkeypatch, tmp_path):
        handed = self._run(monkeypatch, tmp_path / "handed", VerificationPool)
        # Two arguments: the pool's kind-less call, once per holder job.
        # Three: the broker's own, for the two requests no pool handed it —
        # the forged one, and the replay that shared a window (and so one
        # entry, which went to the original) with the request it copies.  The
        # replay in the next window was vouched for alone, handed, consumed.
        assert handed.opened.count(2) == handed.holder_jobs
        assert handed.opened.count(3) == 2
        assert handed.broker._preverified == {}
        parsed = self._run(monkeypatch, tmp_path / "parsed", _VerdictsOnlyPool)
        assert parsed.opened.count(2) == parsed.opened.count(3) == parsed.holder_jobs


class TestValidation:
    def test_verify_batch_must_be_positive(self, generator):
        with pytest.raises(ValueError):
            ThroughputEngine(generator.broker, verify_batch=0)

    def test_group_commit_requires_a_durable_store(self):
        storeless = LoadGenerator(peers=1, coins_per_peer=1, params=PARAMS_TEST_512, seed=5)
        assert storeless.broker.store is None
        with pytest.raises(ValueError):
            ThroughputEngine(
                storeless.broker,
                committer=GroupCommitter.__new__(GroupCommitter),  # placeholder
            )

    def test_absorb_requires_matching_records(self, generator):
        generator.make_round(2)
        with pytest.raises(ValueError):
            generator.absorb([])

    def test_workload_mix_must_have_positive_weight(self):
        with pytest.raises(ValueError):
            WorkloadMix(transfer=0.0, renewal=0.0, purchase=0.0).weights()


class TestLoadGeneratorDeterminism:
    def test_same_seed_same_request_shape(self, tmp_path):
        def shape(root):
            generator = LoadGenerator(
                peers=2, coins_per_peer=1, params=PARAMS_TEST_512,
                store_dir=root, seed=101,
            )
            return [(r.kind, r.idem) for r in generator.make_round(4)]

        assert shape(tmp_path / "a") == shape(tmp_path / "b")
