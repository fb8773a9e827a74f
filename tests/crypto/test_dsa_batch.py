"""Batch signing and the nonce pool (the reply-signing accelerators).

``dsa_sign_batch`` must be bit-identical to sequential ``dsa_sign`` —
the Montgomery batch inversion only amortizes cost, it never changes the
output.  ``DsaNoncePool`` trades that reproducibility for two-modmul
signing; its signatures still verify and its nonces never collide.
"""

import pytest

from repro.crypto import primitives
from repro.crypto.dsa import (
    DsaNoncePool,
    dsa_generate,
    dsa_sign,
    dsa_sign_batch,
    dsa_verify,
)
from repro.crypto.params import PARAMS_TEST_512


@pytest.fixture(scope="module")
def keypair():
    return dsa_generate(PARAMS_TEST_512)


class TestBatchModinv:
    def test_matches_individual_inverses(self):
        q = PARAMS_TEST_512.q
        values = [3, 7, q - 1, 123456789 % q, 2**64 % q]
        assert primitives.batch_modinv(values, q) == [primitives.modinv(v, q) for v in values]

    def test_single_value(self):
        q = PARAMS_TEST_512.q
        assert primitives.batch_modinv([5], q) == [primitives.modinv(5, q)]

    def test_every_product_is_unwound(self):
        # 200 values: the backwards peel must restore each inverse exactly.
        q = PARAMS_TEST_512.q
        values = [(i * i + 1) % q or 1 for i in range(1, 201)]
        for value, inverse in zip(values, primitives.batch_modinv(values, q)):
            assert (value * inverse) % q == 1


class TestSignBatch:
    def test_bit_identical_to_sequential(self, keypair):
        messages = [f"reply-{i}".encode() for i in range(16)]
        batch = dsa_sign_batch(keypair, messages)
        for message, sig in zip(messages, batch):
            solo = dsa_sign(keypair, message)
            assert (sig.r, sig.s, sig.commit) == (solo.r, solo.s, solo.commit)

    def test_all_verify(self, keypair):
        messages = [bytes([i]) * (i + 1) for i in range(8)]
        for message, sig in zip(messages, dsa_sign_batch(keypair, messages)):
            assert dsa_verify(keypair.public, message, sig)

    def test_empty_batch(self, keypair):
        assert dsa_sign_batch(keypair, []) == []

    def test_precomputed_digests_must_match_messages(self, keypair):
        with pytest.raises(ValueError):
            dsa_sign_batch(keypair, [b"a", b"b"], digests=[1])


class TestNoncePool:
    def test_ensure_counts_and_is_idempotent(self, keypair):
        pool = DsaNoncePool(keypair)
        assert pool.ensure(5) == 5
        assert len(pool) == 5
        assert pool.ensure(3) == 0  # already covered
        assert pool.ensure(8) == 3  # top up the difference
        assert pool.generated == 8
        assert pool.refills == 2

    def test_pooled_signatures_verify(self, keypair):
        pool = DsaNoncePool(keypair)
        pool.ensure(4)
        for i in range(4):
            message = f"pooled-{i}".encode()
            sig = dsa_sign(keypair, message, pool=pool)
            assert dsa_verify(keypair.public, message, sig)
        assert len(pool) == 0
        assert pool.served == 4

    def test_dry_pool_falls_back_to_deterministic_path(self, keypair):
        pool = DsaNoncePool(keypair)  # never filled
        sig = dsa_sign(keypair, b"dry", pool=pool)
        solo = dsa_sign(keypair, b"dry")
        assert (sig.r, sig.s) == (solo.r, solo.s)  # RFC 6979 path taken
        assert dsa_verify(keypair.public, b"dry", sig)

    def test_wrong_key_pool_rejected(self, keypair):
        other = dsa_generate(PARAMS_TEST_512)
        pool = DsaNoncePool(other)
        pool.ensure(1)
        with pytest.raises(ValueError):
            dsa_sign(keypair, b"msg", pool=pool)

    def test_nonces_are_distinct(self, keypair):
        pool = DsaNoncePool(keypair)
        pool.ensure(64)
        nonces = {k for k, _, _ in pool._triples}
        assert len(nonces) == 64

    def test_distinct_pools_never_share_nonces(self, keypair):
        # Fresh random salt per pool: two pools over the same key must not
        # produce overlapping chains (the k-reuse key-leak pitfall).
        a, b = DsaNoncePool(keypair), DsaNoncePool(keypair)
        a.ensure(32)
        b.ensure(32)
        assert not {k for k, _, _ in a._triples} & {k for k, _, _ in b._triples}

    def test_fixed_salt_makes_the_chain_reproducible(self, keypair):
        a = DsaNoncePool(keypair, salt=b"\x01" * 16)
        b = DsaNoncePool(keypair, salt=b"\x01" * 16)
        a.ensure(4)
        b.ensure(4)
        assert a._triples == b._triples

    def test_triples_carry_valid_inverses(self, keypair):
        q = keypair.params.q
        pool = DsaNoncePool(keypair)
        pool.ensure(6)
        for k, commit, k_inv in pool._triples:
            assert (k * k_inv) % q == 1
            assert commit == keypair.params.pow_g(k)
