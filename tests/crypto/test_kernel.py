"""The exponentiation kernel: libcrypto's ``BN_mod_exp_mont`` under ``fastexp``.

Every power the crypto layer takes goes through ``fastexp._power``, a kernel
product or a kernel pass of independent powers, so the kernel must equal
built-in ``pow`` on every input it is given, fall back to it exactly where
Montgomery arithmetic cannot go, refuse to return a value when a bignum call
fails, survive a fork, and hold one Montgomery context per modulus however
many bases pass through it.  ``multi_exp`` is one kernel product
(``_Kernel.product``): its terms accumulate in libcrypto, so the product is
held to the same standard term by term, and so is every power of
``fastexp.powers`` (``_Kernel.powers``), the group signer's one pass.
"""

from __future__ import annotations

import os
import pickle
import random
import sys

import pytest

from repro.crypto import fastexp
from repro.crypto.params import PARAMS_1024_160, PARAMS_2048_256, PARAMS_TEST_512

P = PARAMS_TEST_512
ALL_PARAMS = pytest.mark.parametrize(
    "params", [PARAMS_TEST_512, PARAMS_1024_160, PARAMS_2048_256], ids=lambda params: params.name
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    fastexp.clear_caches()
    yield
    fastexp.clear_caches()


def _kernel() -> fastexp._Kernel:
    fastexp._power(2, 3, 5)  # loads it, if nothing has yet
    return fastexp._kernel


class TestAgreesWithPow:
    @ALL_PARAMS
    def test_seeded_bases_and_exponents(self, params):
        rng = random.Random(params.p_bits)
        for _ in range(40):
            base, exponent = rng.randrange(params.p), rng.randrange(params.q)
            assert fastexp._power(base, exponent, params.p) == pow(base, exponent, params.p)
            assert fastexp.mod_pow(base, exponent, params.p) == pow(base, exponent, params.p)

    @ALL_PARAMS
    def test_zero_exponent_zero_and_one_bases(self, params):
        p, q = params.p, params.q
        for base, exponent in ((0, 0), (1, 0), (params.g, 0), (0, 1), (0, q - 1), (1, q - 1), (p - 1, 3)):
            assert fastexp._power(base, exponent, p) == pow(base, exponent, p)
        assert fastexp.multi_exp([(0, 5), (params.g, 7)], p) == 0

    @ALL_PARAMS
    def test_exponent_at_or_above_the_order(self, params):
        p, q, g = params.p, params.q, params.g
        rng = random.Random(params.q_bits)
        for exponent in (q, q + 1, 2 * q, q + rng.randrange(q), q << 40):
            assert fastexp.mod_pow(g, exponent, p, order=q) == pow(g, exponent % q, p)
            assert fastexp.mod_pow(g, exponent, p) == pow(g, exponent, p)
        assert params.pow_g(-5) == pow(g, q - 5, p)

    @ALL_PARAMS
    def test_exponent_longer_than_the_modulus(self, params):
        rng = random.Random(params.p_bits + 1)
        base = rng.randrange(2, params.p)
        for bits in (params.p_bits + 1, 2 * params.p_bits, 3 * params.p_bits + 7):
            exponent = rng.getrandbits(bits) | (1 << (bits - 1))
            assert fastexp._power(base, exponent, params.p) == pow(base, exponent, params.p)

    @ALL_PARAMS
    def test_zero_bytes_in_every_position(self, params):
        rng = random.Random(params.q_bits + 2)
        size = params.q_bits // 8
        dense = int.from_bytes(bytes(rng.randrange(1, 256) for _ in range(size)), "little")
        base = rng.randrange(2, params.p)
        for position in range(size):
            for exponent in (dense & ~(0xFF << (8 * position)), dense & (0xFF << (8 * position))):
                assert fastexp._power(base, exponent, params.p) == pow(base, exponent, params.p)

    @ALL_PARAMS
    def test_products_of_many_bases(self, params):
        rng = random.Random(params.p_bits + 3)
        p, q = params.p, params.q
        pairs = [(rng.randrange(p), rng.randrange(q)) for _ in range(7)]
        pairs += [(0, 5), (1, q - 1), (params.g, 1), (p - 1, 1 << params.p_bits), (rng.randrange(p), 2**64 - 1)]
        for count in range(len(pairs) + 1):
            expected = 1
            for base, exponent in pairs[:count]:
                expected = expected * pow(base, exponent, p) % p
            assert fastexp.multi_exp(pairs[:count], p) == expected

    @ALL_PARAMS
    def test_unreduced_bases(self, params):
        for base in (params.p, params.p + 2, 3 * params.p - 1, -2):
            assert fastexp._power(base, 65537, params.p) == pow(base, 65537, params.p)


class TestFixedBase:
    """``g`` has no table of its own: ``pow_g`` is the kernel, like any base."""

    def test_pow_g_matches_native_pow(self):
        rng = random.Random(5)
        for exponent in [rng.randrange(P.q) for _ in range(40)] + [0, 1, P.q - 1]:
            assert P.pow_g(exponent) == pow(P.g, exponent, P.p)

    def test_pow_g_reduces_by_the_order(self):
        for exponent in (-1, -P.q + 1, P.q, P.q + 3, 5 * P.q - 2, -(3 * P.q) - 4):
            assert P.pow_g(exponent) == pow(P.g, exponent % P.q, P.p)
            assert fastexp.mod_pow(P.g, exponent % P.q + P.q, P.p, order=P.q) == P.pow_g(exponent)

    def test_an_exponent_past_the_order_bits_matches_native_pow(self):
        rng = random.Random(6)
        for bits in (P.q_bits + 1, P.q_bits + 8, P.p_bits, 2 * P.p_bits + 3):
            exponent = rng.getrandbits(bits) | (1 << (bits - 1))
            assert fastexp.mod_pow(P.g, exponent, P.p) == pow(P.g, exponent, P.p)
            assert fastexp.mod_pow(P.g, exponent, P.p, order=P.q) == pow(P.g, exponent % P.q, P.p)


class TestBuiltinPowGuards:
    """What Montgomery arithmetic cannot take goes to built-in ``pow``."""

    def test_even_and_tiny_moduli(self):
        assert fastexp.is_member(4, 11, 23)  # what the benchmark harness's own test calls
        assert not fastexp.is_member(5, 11, 23)
        for modulus in (1, 2, 3, 4, 22, 23, 2**64, P.p - 1, P.p + 1):
            for base, exponent in ((0, 0), (3, 0), (7, 5), (P.g, P.q)):
                assert fastexp._power(base, exponent, modulus) == pow(base, exponent, modulus)
                assert fastexp.mod_pow(base, exponent, modulus) == pow(base, exponent, modulus)
            pairs = [(3, 5), (P.g, P.q), (7, 1)]
            expected = pow(3, 5, modulus) * pow(P.g, P.q, modulus) * pow(7, 1, modulus) % modulus
            assert fastexp.multi_exp(pairs, modulus) == expected % modulus
        assert not any(m % 2 == 0 for m in _kernel()._moduli)

    def test_negative_exponent_is_a_modular_inverse(self):
        for exponent in (-1, -2, -P.q):
            assert fastexp.mod_pow(P.g, exponent, P.p) == pow(P.g, exponent, P.p)
            assert fastexp.mod_pow(P.g, exponent, P.p, order=P.q) == pow(P.g, exponent, P.p)


def _builtin_product(pairs, modulus: int) -> int:
    result = 1
    for base, exponent in pairs:
        result = result * pow(base, exponent, modulus) % modulus
    return result


class TestProduct:
    """``multi_exp`` is one ``_Kernel.product``: one ``BN_mod_exp_mont`` a
    term, multiplied into one accumulator, read back once."""

    def test_the_empty_product_and_one_term(self):
        kernel = _kernel()
        assert kernel.product((), P.p) == 1
        assert fastexp.multi_exp([], P.p) == 1
        assert fastexp.multi_exp([(P.g, 0), (P.g + 1, P.q)], P.p, order=P.q) == 1  # every term drops
        for base, exponent in ((P.g, 5), (P.p - 1, P.q), (2, 2**64 + 3), (0, 7), (1, 0)):
            assert kernel.product(((base, exponent),), P.p) == pow(base, exponent, P.p)
            assert fastexp.multi_exp([(base, exponent)], P.p) == pow(base, exponent, P.p)

    @ALL_PARAMS
    def test_exponents_at_the_word_boundary(self, params):
        # Past 2**64 an exponent takes a ninth byte and a second 64-bit BIGNUM word.
        rng = random.Random(params.p_bits + 4)
        bases = [rng.randrange(2, params.p) for _ in range(3)]
        for exponent in (2**64 - 2, 2**64 - 1, 2**64, 2**64 + 1, 2**65 - 1, 2**65):
            assert fastexp.mod_pow(bases[0], exponent, params.p) == pow(bases[0], exponent, params.p)
            pairs = [(base, exponent + k) for k, base in enumerate(bases)]
            assert fastexp.multi_exp(pairs, params.p) == _builtin_product(pairs, params.p)

    @ALL_PARAMS
    def test_zero_exponents_and_unreduced_or_zero_bases(self, params):
        p, q, g = params.p, params.q, params.g
        pairs = [(g, 0), (p + 3, 5), (0, 0), (2 * p - 1, q), (3 * p + g, 2**64 - 1), (g, 1)]
        assert _kernel().product(pairs, p) == _builtin_product(pairs, p)
        assert fastexp.multi_exp(pairs, p) == _builtin_product(pairs, p)
        assert fastexp.multi_exp(pairs + [(0, 3)], p) == 0
        assert fastexp.multi_exp([(p, 3), (g, 2)], p) == 0  # a base of p is a base of 0

    def test_what_the_kernel_cannot_take_stays_on_builtin_pow(self, monkeypatch):
        native = []

        def native_pow(*args):
            native.append(args)
            return pow(*args)

        monkeypatch.setattr(fastexp, "pow", native_pow, raising=False)
        pairs = [(P.g, -3), (P.g + 1, 12345), (P.g + 2, P.q - 1)]
        assert fastexp.multi_exp(pairs, P.p) == _builtin_product(pairs, P.p)
        assert native == [(P.g, -3, P.p)]  # the other two terms are kernel powers
        assert fastexp.multi_exp(pairs, P.p, order=P.q) == _builtin_product(
            [(b, e % P.q) for b, e in pairs], P.p
        )
        assert len(native) == 1  # an order makes every exponent the kernel's
        for modulus in (1, 2, 4, 23 * 2, P.p + 1, 2**64):
            native.clear()
            pairs = [(3, 5), (P.g, P.q), (7, 2**64 + 1)]
            assert fastexp.multi_exp(pairs, modulus) == _builtin_product(pairs, modulus)
            assert len(native) == len(pairs)

    @ALL_PARAMS
    def test_the_broker_folds_shape(self, params):
        # 1,536 hint terms of odd 64-bit multipliers: 32 roster-16 signatures.
        rng = random.Random(params.p_bits + 5)
        pairs = [(rng.randrange(2, params.p), rng.getrandbits(64) | 1) for _ in range(1536)]
        assert fastexp.multi_exp(pairs, params.p) == _builtin_product(pairs, params.p)


class TestPowers:
    """``fastexp.powers`` is one ``_Kernel.powers`` pass: one
    ``BN_mod_exp_mont`` and one readback a term, in term order."""

    def test_the_empty_list_and_zero_exponents(self):
        kernel = _kernel()
        assert kernel.powers((), P.p) == []
        assert fastexp.powers([], P.p) == []
        pairs = [(P.g, 0), (0, 0), (P.p - 1, 0), (P.g, 5)]
        assert fastexp.powers(pairs, P.p) == [1, 1, 1, pow(P.g, 5, P.p)]

    @ALL_PARAMS
    def test_unreduced_and_zero_bases(self, params):
        p, q, g = params.p, params.q, params.g
        pairs = [(p, 3), (p + 3, 5), (2 * p - 1, q), (3 * p + g, 2**64 - 1), (0, 1), (0, q - 1)]
        assert fastexp.powers(pairs, p) == [pow(b, e, p) for b, e in pairs]

    @ALL_PARAMS
    def test_exponents_at_the_word_boundary_and_the_order(self, params):
        rng = random.Random(params.p_bits + 6)
        pairs = [
            (rng.randrange(2, params.p), exponent)
            for exponent in (2**64 - 1, 2**64, 2**64 + 1, params.q - 1, params.q)
        ]
        assert fastexp.powers(pairs, params.p) == [pow(b, e, params.p) for b, e in pairs]

    @ALL_PARAMS
    def test_a_signers_pass_equals_builtin_pow(self, params):
        # The shape of a roster-16 signature: 65 powers of g, y and 15 quotients.
        rng = random.Random(params.p_bits + 7)
        bases = [params.g, params.pow_g(rng.randrange(1, params.q))]
        bases += [rng.randrange(2, params.p) for _ in range(15)]
        pairs = [(rng.choice(bases), rng.randrange(params.q)) for _ in range(65)]
        assert fastexp.powers(pairs, params.p) == [pow(b, e, params.p) for b, e in pairs]

    def test_a_failed_pass_leaves_the_next_one_right(self, monkeypatch):
        kernel = _kernel()
        pairs = [(P.g, 12345), (P.g + 1, P.q - 777), (P.g + 2, 99)]
        calls = []
        exp = kernel._exp

        def fails_on_the_second(*args):  # the first power is already read back
            calls.append(args)
            return 0 if len(calls) == 2 else exp(*args)

        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_exp", fails_on_the_second)
            with pytest.raises(fastexp.KernelError):
                fastexp.powers(pairs, P.p)
        assert fastexp.powers(pairs, P.p) == [pow(b, e, P.p) for b, e in pairs]
        assert fastexp.powers(pairs[2:], P.p) == [pow(P.g + 2, 99, P.p)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_computes_the_same_powers(self):
        rng = random.Random(9)
        pairs = [(rng.randrange(P.p), rng.randrange(P.q)) for _ in range(33)]
        expected = [pow(b, e, P.p) for b, e in pairs]
        assert fastexp.powers(pairs, P.p) == expected  # loaded before the fork
        read, write = os.pipe()
        child = os.fork()
        if child == 0:  # pragma: no cover - runs in the child
            try:
                os.close(read)
                got = [fastexp.powers(pairs, m) for m in (P.p, PARAMS_1024_160.p)]
                os.write(write, pickle.dumps(got))
            finally:
                os._exit(0)
        os.close(write)
        with os.fdopen(read, "rb") as pipe:
            got = pickle.loads(pipe.read())
        os.waitpid(child, 0)
        assert got == [expected, [pow(b, e, PARAMS_1024_160.p) for b, e in pairs]]


#: Two single powers (a one-term product each), a two-term product and a
#: two-term kernel pass.
EXPONENTIATIONS = {
    "power": lambda: fastexp.mod_pow(P.g, 12345, P.p),
    "member": lambda: fastexp.is_member(P.g, P.q, P.p, memo=False),
    "product": lambda: fastexp.multi_exp(((P.g, 12345), (P.g + 1, P.q - 777)), P.p),
    "powers": lambda: fastexp.powers(((P.g, 12345), (P.g + 1, P.q - 777)), P.p),
}


class TestFailureRaises:
    @pytest.mark.parametrize(
        "call, failed, reached_by",
        [
            ("_exp", 0, ("power", "member", "product", "powers")),
            ("_bin2bn", None, ("power", "member", "product", "powers")),
            ("_bn2binpad", -1, ("power", "member", "product", "powers")),
            ("_mul", 0, ("product",)),
        ],
        ids=["BN_mod_exp_mont", "BN_bin2bn", "BN_bn2binpad", "BN_mod_mul"],
    )
    def test_a_failing_bn_call_raises(self, monkeypatch, call, failed, reached_by):
        monkeypatch.setattr(_kernel(), call, lambda *_args: failed)
        for name in reached_by:
            with pytest.raises(fastexp.KernelError):
                EXPONENTIATIONS[name]()

    def test_a_failed_product_leaves_the_next_one_right(self, monkeypatch):
        kernel = _kernel()
        pairs = [(P.g, 12345), (P.g + 1, P.q - 777), (P.g + 2, 99)]
        expected = pow(P.g, 12345, P.p) * pow(P.g + 1, P.q - 777, P.p) * pow(P.g + 2, 99, P.p) % P.p
        with monkeypatch.context() as patch:
            patch.setattr(kernel, "_mul", lambda *_args: 0)
            with pytest.raises(fastexp.KernelError):
                fastexp.multi_exp(pairs, P.p)
        assert fastexp.multi_exp(pairs, P.p) == expected
        assert fastexp.multi_exp(pairs[2:], P.p) == pow(P.g + 2, 99, P.p)

    def test_a_library_without_the_kernel_is_refused(self):
        with pytest.raises(fastexp.KernelError, match="links no usable libcrypto"):
            fastexp._Kernel("libc.so.6")

    def test_a_hashlib_without_openssl_says_why(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "_hashlib", None)  # the import now fails
        monkeypatch.setattr(fastexp, "_kernel", None)
        with pytest.raises(fastexp.KernelError, match="not built on OpenSSL"):
            fastexp.mod_pow(P.g, 5, P.p)


def test_the_kernel_is_the_library_hashlib_runs_on():
    import _hashlib

    assert _kernel()._lib._name == _hashlib.__file__


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_computes_the_same_powers():
    rng = random.Random(7)
    cases = [(rng.randrange(P.p), rng.randrange(P.q)) for _ in range(20)]
    expected = [pow(base, exponent, P.p) for base, exponent in cases]
    assert [fastexp._power(b, e, P.p) for b, e in cases] == expected  # loaded before the fork
    read, write = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        try:
            os.close(read)
            moduli = (P.p, PARAMS_1024_160.p)  # an inherited context and a fresh one
            got = [[fastexp._power(b, e, m) for b, e in cases] for m in moduli]
            os.write(write, pickle.dumps(got))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        got = pickle.loads(pipe.read())
    os.waitpid(child, 0)
    assert got[0] == expected
    assert got[1] == [pow(b, e, PARAMS_1024_160.p) for b, e in cases]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_computes_the_same_product():
    rng = random.Random(8)
    terms = [(rng.randrange(P.p), rng.getrandbits(64) | 1) for _ in range(64)]
    terms += [(rng.randrange(P.p), rng.randrange(P.q)) for _ in range(4)]
    expected = _builtin_product(terms, P.p)
    assert fastexp.multi_exp(terms, P.p) == expected  # the accumulator exists before the fork
    read, write = os.pipe()
    child = os.fork()
    if child == 0:  # pragma: no cover - runs in the child
        try:
            os.close(read)
            got = [fastexp.multi_exp(terms, m) for m in (P.p, PARAMS_1024_160.p)]
            os.write(write, pickle.dumps(got))
        finally:
            os._exit(0)
    os.close(write)
    with os.fdopen(read, "rb") as pipe:
        got = pickle.loads(pipe.read())
    os.waitpid(child, 0)
    assert got == [expected, _builtin_product(terms, PARAMS_1024_160.p)]


class TestStateIsOneContextPerModulus:
    def test_many_bases_leave_one_entry(self):
        kernel = _kernel()
        kernel.clear()
        rng = random.Random(11)
        for _ in range(500):  # roster keys, coin keys, ciphertext halves: all one modulus
            base = rng.randrange(2, P.p)
            fastexp.mod_pow(base, rng.randrange(P.q), P.p, order=P.q)
            fastexp.is_member(base, P.q, P.p, memo=False)
        assert list(kernel._moduli) == [P.p]

    def test_moduli_past_the_bound_oldest_out(self, monkeypatch):
        monkeypatch.setattr(fastexp, "_MAX_MODULI", 4)
        kernel = _kernel()
        kernel.clear()
        moduli = [P.p + 2 * k for k in range(1, 40)]  # odd, distinct
        for modulus in moduli:
            assert fastexp._power(P.g, P.q, modulus) == pow(P.g, P.q, modulus)
            assert len(kernel._moduli) <= 4
        assert list(kernel._moduli) == moduli[-4:]
        assert fastexp._power(P.g, P.q, moduli[0]) == pow(P.g, P.q, moduli[0])

    @staticmethod
    def _counting_builds(monkeypatch, kernel):
        built = []
        original = kernel._context
        monkeypatch.setattr(
            kernel, "_context", lambda modulus: built.append(modulus) or original(modulus)
        )
        return built

    def test_a_new_base_builds_no_context(self, monkeypatch):
        kernel = _kernel()
        assert fastexp.mod_pow(P.g, 3, P.p) == pow(P.g, 3, P.p)
        context = kernel._moduli[P.p]
        built = self._counting_builds(monkeypatch, kernel)
        for k in range(1, 60):  # a coin key first seen now, then named again and again
            base = P.pow_g(700 + k)
            for exponent in (k, P.q - k, P.q + k):
                assert fastexp.mod_pow(base, exponent, P.p) == pow(base, exponent, P.p)
        assert built == [] and kernel._moduli[P.p] is context

    def test_the_deployment_moduli_stay_resident(self, monkeypatch):
        groups = (PARAMS_TEST_512, PARAMS_1024_160, PARAMS_2048_256)
        kernel = _kernel()
        for params in groups:
            fastexp.is_member(params.g, params.q, params.p, memo=False)
        resident = {params.p: kernel._moduli[params.p] for params in groups}
        built = self._counting_builds(monkeypatch, kernel)
        rng = random.Random(12)
        for _ in range(3):  # a roster loop over every group, again and again
            for params in groups:
                for _ in range(10):
                    base = params.pow_g(rng.randrange(1, params.q))
                    assert fastexp.is_member(base, params.q, params.p, memo=False)
        assert built == []
        assert {modulus: kernel._moduli[modulus] for modulus in resident} == resident

    def test_moduli_within_the_bound_rotate(self, monkeypatch):
        monkeypatch.setattr(fastexp, "_MAX_MODULI", 4)
        kernel = _kernel()
        kernel.clear()
        moduli = [P.p + 2 * k for k in range(1, 5)]  # odd, distinct, exactly the bound
        for modulus in moduli:
            fastexp._power(P.g, 3, modulus)
        built = self._counting_builds(monkeypatch, kernel)
        for _ in range(5):
            for modulus in reversed(moduli):
                assert fastexp._power(P.g, P.q, modulus) == pow(P.g, P.q, modulus)
        assert built == [] and set(kernel._moduli) == set(moduli)
