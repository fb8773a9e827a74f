"""Throughput engine semantics: release gating, precise rejections, stats.

The crash-consistency half of the engine contract is exercised in
``tests/store/test_groupcommit.py``; here we pin down the happy path and
the pool/broker interplay — a forged request is rejected with its precise
error while honest requests sharing its window land, and a request that
reaches the broker alone is served exactly as a window of one.
"""

from __future__ import annotations

import random
import secrets
import sys
from dataclasses import replace

import pytest

from repro.core import PeerConfig, WhoPayNetwork, protocol
from repro.core.errors import ProtocolError
from repro.crypto.params import PARAMS_TEST_512
from repro.net.rpc import wrap_idempotent
from repro.pipeline import LoadGenerator, ThroughputEngine, VerificationPool
from repro.pipeline.loadgen import WorkloadMix
from repro.store.groupcommit import GroupCommitter
from repro.store.journal import DurableStore


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


def _seed_secrets(monkeypatch, seed):
    """Keys, signing nonces and batch multipliers from one seeded stream."""
    rng = random.Random(seed)
    monkeypatch.setattr(secrets, "randbelow", rng.randrange)
    monkeypatch.setattr(secrets, "randbits", rng.getrandbits)
    monkeypatch.setattr(secrets, "token_bytes", rng.randbytes)
    monkeypatch.setattr(secrets, "token_hex", lambda nbytes: rng.randbytes(nbytes).hex())


class TestOneAdmissionPath:
    """A request that reaches the broker alone is a window of one: the same
    pool verdict, the same staged record, the same flush before the reply."""

    def test_a_lone_request_is_a_window_of_one(self, tmp_path, monkeypatch):
        net = WhoPayNetwork(params=PARAMS_TEST_512, store_dir=tmp_path)
        alice = net.add_peer("alice", PeerConfig(balance=10))
        bob = net.add_peer("bob")
        coin_y = alice.purchase().coin_y
        alice.issue("bob", coin_y)
        alice.depart()
        shard = net.shards[0]
        verified, flushes = shard.pool.jobs_verified, shard.committer.flushes
        callers = []
        real_append = DurableStore.append

        def append(store, record):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_append(store, record)

        monkeypatch.setattr(DurableStore, "append", append)
        bob.renew(coin_y)  # the owner is away: one downtime renewal, alone over RPC
        assert shard.pool.jobs_verified == verified + 1
        assert shard.committer.flushes == flushes + 1
        assert callers == ["append_many"]  # the committer's flush of one, not handle()
        assert shard.downtime_bindings[coin_y].holder_y == bob.wallet[coin_y].binding.holder_y


class TestHandedRequests:
    """A window hands each request the verdict its pool call reached; a lone
    request is parsed by its own pool call.  One seeded stream served both
    ways must not be told apart from outside."""

    def _stream(self, generator):
        """One round, salted: a forged group signature, a forged coin
        certificate, a misrouted kind, a replay in the window and one in the
        next, a stale proof binding and a double deposit (16 + 1 requests)."""
        params = generator.params
        wire = _wire(generator.make_round(10))
        used = {
            protocol.open_holder_request(data, params).coin.coin_y
            for kind, _src, data, _idem in wire
            if kind != protocol.PURCHASE
        }
        spare = [coin_y for coin_y in generator.coins if coin_y not in used]
        transfers = [i for i, (kind, *_rest) in enumerate(wire) if kind == protocol.DOWNTIME_TRANSFER]
        forged, misrouted, replayed = transfers[:3]
        kind, src, data, idem = wire[forged]
        wire[forged] = (kind, src, _forge_group_signature(data, params), idem)
        _kind, src, data, idem = wire[misrouted]
        wire[misrouted] = (protocol.DOWNTIME_RENEWAL, src, data, idem)

        held = generator.held[spare[0]]
        cert = held.coin.cert
        bad_cert = replace(cert, signature=replace(cert.signature, s=cert.signature.s ^ 1))
        extra = [generator._holder_request(replace(held, coin=replace(held.coin, cert=bad_cert)), "renewal")]
        held = generator.held[spare[1]]  # renewed, then transferred from the proof it replaced
        extra += [generator._holder_request(held, "renewal"), generator._holder_request(held, "transfer", new_holder_y=params.pow_g(5))]
        held = generator.held[spare[2]]
        extra += [generator._holder_request(held, "deposit", payout_to=name) for name in ("bearer-a", "bearer-b")]
        wire += _wire(extra)
        kind, src, data, _idem = wire[replayed]
        wire.append((kind, src, data, "replay-same-window"))
        wire.append((kind, src, data, "replay-next-window"))
        return wire, {"forged": forged, "misrouted": misrouted, "replayed": replayed}

    def _serve(self, monkeypatch, root, windowed):
        _seed_secrets(monkeypatch, 77)
        generator = LoadGenerator(
            peers=4, coins_per_peer=3, params=PARAMS_TEST_512, store_dir=root, seed=13,
            mix=WorkloadMix(transfer=0.5, renewal=0.3, purchase=0.2),
        )
        wire, marks = self._stream(generator)
        network, broker = generator.network, generator.broker
        journaled = len(broker.store.load()[1])
        opened = []
        real_open = protocol.open_holder_request
        monkeypatch.setattr(
            protocol, "open_holder_request", lambda *args: opened.append(args) or real_open(*args)
        )
        if windowed:
            committer = GroupCommitter(broker.store, max_batch=16)
            engine = ThroughputEngine(broker, pool=broker.pool, committer=committer, verify_batch=16)
            records = engine.run(wire[:16])[0] + engine.run(wire[16:])[0]
            outcome = [(r.ok, r.error, r.reply) for r in records]
            assert all(r.released for r in records)
        else:
            outcome = []
            for kind, src, data, idem in wire:
                try:
                    reply = network.transport.request(src, broker.address, kind, wrap_idempotent(data, idem))
                except ProtocolError as exc:
                    outcome.append((False, f"{type(exc).__name__}: {exc}", None))
                else:
                    outcome.append((True, None, reply))
        ledger = network.broker.export_ledger()
        del ledger["operation_counts"]  # process telemetry, not journaled
        return {
            "outcome": outcome,
            "ledger": ledger,
            "bindings": {y: (b.seq, b.holder_y) for y, b in broker.downtime_bindings.items()},
            "journal": [_unsigned(record, broker.params) for record in broker.store.load()[1][journaled:]],
            "opened": len(opened),
            "holder_jobs": sum(kind != protocol.PURCHASE for kind, *_rest in wire),
            "params": broker.params,
            **marks,
        }

    def test_handed_and_parsed_requests_are_indistinguishable(self, monkeypatch, tmp_path):
        lone = self._serve(monkeypatch, tmp_path / "lone", windowed=False)
        window = self._serve(monkeypatch, tmp_path / "window", windowed=True)
        verdicts = lambda run: [(ok, error) for ok, error, _reply in run["outcome"]]
        assert verdicts(lone) == verdicts(window)
        assert lone["ledger"] == window["ledger"]
        assert lone["bindings"] == window["bindings"]
        # Same records in the same order; LSNs, frame grouping and fresh
        # signature randomness aside.
        assert lone["journal"] == window["journal"]
        errors = {index: error for index, (ok, error) in enumerate(verdicts(lone)) if not ok}
        assert sorted(errors) == sorted([lone["forged"], lone["misrouted"], 10, 12, 14, 15, 16])
        assert errors[lone["forged"]] == "VerificationFailed: holder envelope signatures invalid"
        assert errors[lone["misrouted"]] == (
            "ProtocolError: a transfer request cannot be served as whopay.downtime_renewal"
        )
        assert errors[10] == "VerificationFailed: coin certificate invalid"
        assert errors[12] == "NotHolder: proof binding is stale (older than broker state)"
        assert errors[14] == "DoubleSpendDetected: coin already deposited"
        assert errors[15] == errors[16] and errors[15].startswith("NotHolder")
        assert verdicts(lone)[lone["replayed"]][0]

    def test_each_request_is_opened_once_and_handed_once(self, monkeypatch, tmp_path):
        for windowed in (False, True):
            run = self._serve(monkeypatch, tmp_path / str(windowed), windowed=windowed)
            # Each holder request is opened once, by the pool, and its handler
            # is handed what the pool opened; every reply verifies.
            assert run["opened"] == run["holder_jobs"]
            for _ok, _error, reply in run["outcome"]:
                signed = reply if isinstance(reply, list) else [reply] if isinstance(reply, bytes) else []
                assert all(protocol.decode_signed(raw, run["params"]).verify() for raw in signed)

def _unsigned(value, params):
    """A journal value with LSNs dropped and each signed message reduced to
    its signer and payload (broker signatures draw fresh randomness)."""
    if isinstance(value, dict):
        return {key: _unsigned(item, params) for key, item in value.items() if key != "lsn"}
    if isinstance(value, (list, tuple)):
        return [_unsigned(item, params) for item in value]
    if isinstance(value, bytes):
        try:
            signed = protocol.decode_signed(value, params)
        except (ProtocolError, ValueError, KeyError, TypeError):
            return value
        return ("signed", signed.signer.y, _unsigned(signed.payload, params))
    return value


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
