"""Tests for ``fastexp``'s public surface: ``mod_pow``, ``multi_exp``, the
membership memo and the caches.

Everything here checks *agreement with native ``pow``*: the layer is pure
performance and must be bit-for-bit equivalent on every input.  The kernel
under it has its own tests (``test_kernel.py``).
"""

import secrets

import pytest

from repro.crypto import fastexp
from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512

P = PARAMS_TEST_512


@pytest.fixture(autouse=True)
def _fresh_caches():
    fastexp.clear_caches()
    yield
    fastexp.clear_caches()


class TestModPow:
    def test_matches_native(self):
        base = pow(P.g, 12345, P.p)
        for _ in range(10):
            e = secrets.randbelow(P.q)
            assert fastexp.mod_pow(base, e, P.p, order=P.q) == pow(base, e, P.p)


class TestMultiExp:
    def _native(self, pairs, modulus):
        out = 1
        for base, exp in pairs:
            out = (out * pow(base, exp, modulus)) % modulus
        return out

    def test_pairs_match_native(self):
        for count in (1, 2, 3, 5):
            pairs = [
                (pow(P.g, secrets.randbelow(P.q), P.p), secrets.randbelow(P.q))
                for _ in range(count)
            ]
            assert fastexp.multi_exp(pairs, P.p, order=P.q) == self._native(pairs, P.p)

    def test_zero_exponents(self):
        pairs = [(P.g, 0), (pow(P.g, 7, P.p), 0)]
        assert fastexp.multi_exp(pairs, P.p, order=P.q) == 1

    def test_empty(self):
        assert fastexp.multi_exp([], P.p) == 1

    def test_a_base_repeated_across_calls_matches_native(self):
        # A key named in every product (the judge's, a roster key) is one
        # more kernel operand each time, with nothing kept between calls.
        key = pow(P.g, 4321, P.p)
        for _ in range(20):
            pairs = [(key, secrets.randbelow(P.q)), (P.g, secrets.randbelow(P.q)), (key, 1)]
            assert fastexp.multi_exp(pairs, P.p, order=P.q) == self._native(pairs, P.p)
            assert fastexp.multi_exp(pairs, P.p) == self._native(pairs, P.p)


class TestMembership:
    def test_agrees_with_definition(self):
        member = pow(P.g, 123, P.p)
        assert fastexp.is_member(member, P.q, P.p)
        assert fastexp.is_member(member, P.q, P.p)  # memoized path
        non_member = 2
        while pow(non_member, P.q, P.p) == 1:  # pragma: no cover
            non_member += 1
        assert not fastexp.is_member(non_member, P.q, P.p)

    def test_tabled_nonmember_is_still_rejected(self):
        # Regression guard from the fixed-base tables: powers of a base taken
        # with an assumed order q must not shortcut the membership test
        # (x**(q mod q) == 1 for anything), which never reduces its exponent.
        non_member = 2
        while pow(non_member, P.q, P.p) == 1:  # pragma: no cover
            non_member += 1
        assert fastexp.mod_pow(non_member, P.q, P.p, order=P.q) == 1
        assert not fastexp.is_member(non_member, P.q, P.p)

    def test_membership_takes_the_exact_unreduced_power(self, monkeypatch):
        powers = []
        original = fastexp._power
        monkeypatch.setattr(fastexp, "_power", lambda *args: powers.append(args) or original(*args))
        non_member = 2
        while pow(non_member, P.q, P.p) == 1:  # pragma: no cover
            non_member += 1
        member = pow(P.g, 77, P.p)
        assert fastexp.is_member(member, P.q, P.p, memo=False)
        assert not fastexp.is_member(non_member, P.q, P.p, memo=False)
        assert not fastexp.is_member(non_member, P.q, P.p)
        assert powers == [(member, P.q, P.p), (non_member, P.q, P.p), (non_member, P.q, P.p)]


class TestCaches:
    def test_clear_caches(self):
        assert fastexp.is_member(P.g, P.q, P.p)
        assert (P.g, P.q, P.p) in fastexp._members and P.p in fastexp._kernel._moduli
        fastexp.clear_caches()
        assert not fastexp._members and not fastexp._kernel._moduli
        assert fastexp.mod_pow(P.g, P.q, P.p) == 1  # the library stays loaded

    def test_distinct_moduli_do_not_collide(self):
        assert fastexp.mod_pow(P.g, 5, P.p) == pow(P.g, 5, P.p)
        q2, p2, g2 = PARAMS_1024_160.q, PARAMS_1024_160.p, PARAMS_1024_160.g
        e = secrets.randbelow(q2)
        assert fastexp.mod_pow(g2, e, p2, order=q2) == pow(g2, e, p2)
        assert fastexp.mod_pow(P.g, e, P.p) == pow(P.g, e, P.p)


class TestAdvisoryStateIsBounded:
    """The memo that grows with every new key runs 10x past a (shrunk)
    bound and stays under it, answers unchanged."""

    def test_membership_memo_is_least_recently_used_out(self, monkeypatch):
        monkeypatch.setattr(fastexp, "_MAX_MEMBERS", 8)
        first = pow(P.g, 800, P.p)
        for i in range(80):
            assert fastexp.is_member(pow(P.g, 800 + i, P.p), P.q, P.p)
            assert fastexp.is_member(first, P.q, P.p)  # kept warm, so kept
            assert len(fastexp._members) <= 8
        assert (first, P.q, P.p) in fastexp._members
