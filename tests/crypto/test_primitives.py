"""Unit tests for the number-theoretic helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import primitives


class TestRandomness:
    def test_randbelow_range(self):
        for _ in range(100):
            assert 0 <= primitives.randbelow(7) < 7

    def test_randbelow_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            primitives.randbelow(0)

    def test_rand_range_bounds(self):
        for _ in range(100):
            assert 5 <= primitives.rand_range(5, 9) < 9

    def test_rand_range_rejects_empty(self):
        with pytest.raises(ValueError):
            primitives.rand_range(3, 3)

    def test_rand_bits_exact_width(self):
        for bits in (2, 8, 64, 160):
            assert primitives.rand_bits(bits).bit_length() == bits

    def test_rand_bits_rejects_tiny(self):
        with pytest.raises(ValueError):
            primitives.rand_bits(1)


class TestPrimality:
    KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, (1 << 61) - 1]
    KNOWN_COMPOSITES = [1, 4, 100, 7917, 561, 41041, 825265]  # incl. Carmichaels

    def test_known_primes(self):
        for p in self.KNOWN_PRIMES:
            assert primitives.is_probable_prime(p), p

    def test_known_composites(self):
        for n in self.KNOWN_COMPOSITES:
            assert not primitives.is_probable_prime(n), n

    def test_negative_and_zero(self):
        assert not primitives.is_probable_prime(0)
        assert not primitives.is_probable_prime(-7)

    def test_generate_prime_is_prime_and_sized(self):
        p = primitives.generate_prime(64)
        assert p.bit_length() == 64
        assert primitives.is_probable_prime(p)


class TestModular:
    def test_modinv_basic(self):
        assert (primitives.modinv(3, 7) * 3) % 7 == 1

    def test_modinv_large(self):
        m = (1 << 127) - 1
        a = 123456789
        assert (primitives.modinv(a, m) * a) % m == 1

    def test_modinv_noninvertible_raises(self):
        with pytest.raises(ValueError):
            primitives.modinv(6, 9)

    def test_batch_modinv_of_nothing(self):
        # Element-wise agreement with modinv is in test_dsa_batch.TestBatchModinv.
        assert primitives.batch_modinv([], 7) == []
        assert primitives.batch_modinv([], 23, order=11) == []

    def test_batch_modinv_of_subgroup_elements_by_their_order(self, monkeypatch):
        from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512

        for params in (PARAMS_TEST_512, PARAMS_1024_160):
            p, q = params.p, params.q
            values = [params.pow_g(k) for k in (1, 2, q - 1, 12345, 2**64 + 1)]
            native = []
            monkeypatch.setattr(primitives, "pow", lambda *a: native.append(a) or pow(*a), raising=False)
            inverses = primitives.batch_modinv(values, p, order=q)
            monkeypatch.undo()
            assert native == []  # the one inversion is a kernel power
            assert inverses == [pow(v, -1, p) for v in values]

    def test_batch_modinv_nonunit_raises_typed_error(self):
        with pytest.raises(primitives.NotInvertibleError):
            primitives.batch_modinv([2, 6, 5], 9)
        with pytest.raises(primitives.NotInvertibleError):
            primitives.batch_modinv([0], 7)


class TestHashToInt:
    def test_deterministic(self):
        a = primitives.hash_to_int(b"x", b"y", modulus=10**9)
        b = primitives.hash_to_int(b"x", b"y", modulus=10**9)
        assert a == b

    def test_part_boundaries_matter(self):
        # (b"ab", b"c") must differ from (b"a", b"bc") — injective framing.
        assert primitives.hash_to_int(b"ab", b"c", modulus=1 << 128) != primitives.hash_to_int(
            b"a", b"bc", modulus=1 << 128
        )

    def test_within_modulus(self):
        for modulus in (2, 97, 1 << 160):
            assert 0 <= primitives.hash_to_int(b"data", modulus=modulus) < modulus

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            primitives.hash_to_int(b"x", modulus=1)


class TestIntBytes:
    @given(st.integers(min_value=0, max_value=1 << 512))
    @settings(max_examples=200)
    def test_roundtrip(self, n):
        assert primitives.bytes_to_int(primitives.int_to_bytes(n)) == n

    def test_zero_is_one_byte(self):
        assert primitives.int_to_bytes(0) == b"\x00"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            primitives.int_to_bytes(-1)


class TestConstantTimeEq:
    def test_equal(self):
        assert primitives.constant_time_eq(b"abc", b"abc")

    def test_unequal(self):
        assert not primitives.constant_time_eq(b"abc", b"abd")
        assert not primitives.constant_time_eq(b"abc", b"abcd")
