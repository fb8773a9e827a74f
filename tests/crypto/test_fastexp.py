"""Tests for the fixed-base / multi-exponentiation accelerator.

Everything here checks *agreement with native ``pow``* — the accelerator is
a pure performance layer and must be bit-for-bit equivalent on every input.
"""

import secrets

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


class TestFixedBaseTable:
    def test_matches_native_pow(self):
        table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length())
        for _ in range(20):
            e = secrets.randbelow(P.q)
            assert table.pow(e) == pow(P.g, e, P.p)

    def test_edge_exponents(self):
        table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length())
        for e in (0, 1, 2, P.q - 1, P.q):
            assert table.pow(e) == pow(P.g, e, P.p)

    def test_order_reduction(self):
        table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length(), order=P.q)
        e = secrets.randbelow(P.q)
        # g has order q, so exponents reduce mod q.
        assert table.pow(e + P.q) == pow(P.g, e, P.p)
        assert table.pow(2 * P.q) == 1

    def test_overflow_falls_back(self):
        # Exponent wider than the table was built for: still correct.
        table = fastexp.FixedBaseTable(P.g, P.p, 16)
        e = secrets.randbelow(P.q)
        assert table.pow(e) == pow(P.g, e, P.p)

    def test_window_sizes_agree(self):
        e = secrets.randbelow(P.q)
        for window in (1, 2, 4, 5, 8):
            table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length(), window=window)
            assert table.pow(e) == pow(P.g, e, P.p)


class TestByteWideTable:
    """``window=SYSTEM_WINDOW``: one row of 256 per byte of the exponent."""

    @staticmethod
    def _table(params, order=True):
        return fastexp.FixedBaseTable(
            params.g,
            params.p,
            params.q_bits,
            window=fastexp.SYSTEM_WINDOW,
            order=params.q if order else None,
        )

    @ALL_PARAMS
    def test_one_row_of_256_per_exponent_byte(self, params):
        table = self._table(params)
        assert len(table._rows) == params.q_bits // 8
        assert len(table._rows) in (20, 32)
        assert {len(row) for row in table._rows} == {256}
        assert table._rows[3][7] == pow(params.g, 7 * 256**3, params.p)

    @ALL_PARAMS
    def test_matches_native_pow(self, params):
        q, tables = params.q, (self._table(params), self._table(params, order=False))
        edges = [0, 1, 255, 256, q - 1, q, q + 1]
        edges += [secrets.randbelow(q) for _ in range(20)]
        for table in tables:
            for e in edges:
                assert table.pow(e) == pow(params.g, e, params.p)

    @ALL_PARAMS
    def test_zero_bytes_in_every_position(self, params):
        table, size = self._table(params, order=False), params.q_bits // 8
        dense = int.from_bytes(secrets.token_bytes(size - 1) + b"\x7f", "little") | int.from_bytes(
            b"\x01" * size, "little"
        )
        for position in range(size):
            holed = dense & ~(0xFF << (8 * position))
            alone = dense & (0xFF << (8 * position))
            for e in (holed, alone):
                assert e.bit_length() <= table.max_bits
                assert table.pow(e) == pow(params.g, e, params.p)

    @ALL_PARAMS
    def test_negative_exponents_reduce_by_the_order(self, params):
        table = self._table(params)
        for c in (1, 255, 256, secrets.randbelow(params.q), params.q + 5):
            assert table.pow(-c) == pow(params.g, -c, params.p)

    def test_negative_exponent_without_order_is_refused(self):
        for window in (fastexp.CACHED_WINDOW, fastexp.SYSTEM_WINDOW):
            table = fastexp.FixedBaseTable(P.g, P.p, P.q_bits, window=window)
            with pytest.raises(ValueError):
                table.pow(-1)

    @ALL_PARAMS
    def test_exponent_past_the_table_falls_back_to_native(self, params):
        table = self._table(params, order=False)
        for e in (1 << params.q_bits, params.q << 9, (1 << (params.q_bits + 8)) - 1):
            assert e.bit_length() > table.max_bits
            assert table.pow(e) == pow(params.g, e, params.p)

    def test_membership_through_an_unordered_wide_table_is_the_exact_test(self):
        non_member = next(x for x in range(2, 50) if pow(x, P.q, P.p) != 1)
        for x, verdict in ((pow(P.g, 77, P.p), True), (non_member, False)):
            table = fastexp.precompute(x, P.p, P.q_bits, window=fastexp.SYSTEM_WINDOW)
            assert table.order is None and table.pow(P.q) == pow(x, P.q, P.p)
            assert fastexp.is_member(x, P.q, P.p) is verdict


class TestModPow:
    def test_matches_native(self):
        base = pow(P.g, 12345, P.p)
        for _ in range(10):
            e = secrets.randbelow(P.q)
            assert fastexp.mod_pow(base, e, P.p, order=P.q) == pow(base, e, P.p)

    def test_promotion_after_repeated_use(self):
        base = pow(P.g, 999, P.p)
        e = secrets.randbelow(P.q)
        for _ in range(fastexp.PROMOTE_AFTER + 1):
            assert fastexp.mod_pow(base, e, P.p, order=P.q) == pow(base, e, P.p)
        # A table now exists and keeps agreeing with pow.
        assert fastexp.fixed_base(base, P.p) is not None
        e2 = secrets.randbelow(P.q)
        assert fastexp.mod_pow(base, e2, P.p, order=P.q) == pow(base, e2, P.p)


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

    def test_with_cached_table(self):
        fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q)
        y = pow(P.g, 4242, P.p)
        pairs = [(P.g, secrets.randbelow(P.q)), (y, secrets.randbelow(P.q))]
        assert fastexp.multi_exp(pairs, P.p, order=P.q) == self._native(pairs, P.p)

    def test_with_ephemeral_tables(self):
        c1 = pow(P.g, 31337, P.p)
        tables = {
            c1: fastexp.FixedBaseTable(
                c1, P.p, P.q.bit_length(), window=fastexp.EPHEMERAL_WINDOW, order=P.q
            )
        }
        pairs = [(P.g, secrets.randbelow(P.q)), (c1, secrets.randbelow(P.q))]
        assert fastexp.multi_exp(pairs, P.p, order=P.q, tables=tables) == self._native(
            pairs, P.p
        )


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
        # Regression guard: a base with an order-reduced cached table must
        # not shortcut the membership test (x**(q mod q) == 1 for anything).
        non_member = 2
        while pow(non_member, P.q, P.p) == 1:  # pragma: no cover
            non_member += 1
        fastexp.precompute(non_member, P.p, P.q.bit_length(), order=P.q)
        assert not fastexp.is_member(non_member, P.q, P.p)


class TestCaches:
    def test_clear_caches(self):
        fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q)
        assert fastexp.fixed_base(P.g, P.p) is not None
        fastexp.clear_caches()
        assert fastexp.fixed_base(P.g, P.p) is None

    def test_distinct_moduli_do_not_collide(self):
        fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q)
        q2, p2, g2 = PARAMS_1024_160.q, PARAMS_1024_160.p, PARAMS_1024_160.g
        e = secrets.randbelow(q2)
        assert fastexp.mod_pow(g2, e, p2, order=q2) == pow(g2, e, p2)


class TestAdvisoryStateIsBounded:
    """The two memos that grow with every new key: both run 10x past a
    (shrunk) bound and stay under it, answers unchanged."""

    def test_use_counters_are_dropped_wholesale_at_the_bound(self, monkeypatch):
        monkeypatch.setattr(fastexp, "_MAX_COUNTS", 8)
        for i in range(80):  # each base seen once: counted, never promoted
            base = pow(P.g, 700 + i, P.p)
            assert fastexp.mod_pow(base, 5, P.p, order=P.q) == pow(base, 5, P.p)
            assert len(fastexp._use_counts) <= 8
        assert not fastexp._tables

    def test_membership_memo_is_least_recently_used_out(self, monkeypatch):
        monkeypatch.setattr(fastexp, "_MAX_MEMBERS", 8)
        first = pow(P.g, 800, P.p)
        for i in range(80):
            assert fastexp.is_member(pow(P.g, 800 + i, P.p), P.q, P.p)
            assert fastexp.is_member(first, P.q, P.p)  # kept warm, so kept
            assert len(fastexp._members) <= 8
        assert (first, P.q, P.p) in fastexp._members


class TestWindowIsAFloor:
    def test_wide_request_rebuilds_a_narrow_table_and_never_the_reverse(self):
        narrow = fastexp.precompute(P.g, P.p, P.q_bits, order=P.q)
        assert narrow.window == fastexp.CACHED_WINDOW
        wide = fastexp.precompute(P.g, P.p, P.q_bits, order=P.q, window=fastexp.SYSTEM_WINDOW)
        assert wide.window == fastexp.SYSTEM_WINDOW
        assert fastexp.precompute(P.g, P.p, P.q_bits, order=P.q) is wide
        assert fastexp.fixed_base(P.g, P.p) is wide

    def test_wide_request_replaces_a_promoted_table(self):
        for _ in range(fastexp.PROMOTE_AFTER):
            fastexp.mod_pow(P.g, 3, P.p, order=P.q)
        assert fastexp.fixed_base(P.g, P.p).window == fastexp.CACHED_WINDOW
        assert P.fixed_g().window == fastexp.SYSTEM_WINDOW
        assert fastexp.mod_pow(P.g, P.q - 2, P.p, order=P.q) == pow(P.g, P.q - 2, P.p)

    def test_a_longer_request_keeps_the_width_and_a_wider_one_the_length(self):
        for first in ("wide", "long"):
            fastexp.clear_caches()
            if first == "wide":
                P.fixed_g()
            table = fastexp.precompute(P.g, P.p, P.p_bits, order=P.q)  # default width, more bits
            if first == "long":
                assert table.window == fastexp.CACHED_WINDOW
                table = P.fixed_g()
            assert (table.window, table.max_bits) == (fastexp.SYSTEM_WINDOW, P.p_bits)
            # Both floors met: neither caller rebuilds the other's table again.
            assert P.fixed_g() is table
            assert fastexp.precompute(P.g, P.p, P.p_bits, order=P.q) is table


@pytest.fixture()
def small_cache(monkeypatch):
    """A cache of 8 tables, and the list of every table built meanwhile."""
    monkeypatch.setattr(fastexp, "_MAX_TABLES", 8)
    built = []
    original = fastexp.FixedBaseTable.__init__

    def counted(self, base, *args, **kwargs):
        built.append(base)
        original(self, base, *args, **kwargs)

    monkeypatch.setattr(fastexp.FixedBaseTable, "__init__", counted)
    return built


def _use(base, times=fastexp.PROMOTE_AFTER):
    for _ in range(times):
        e = secrets.randbelow(P.q)
        assert fastexp.mod_pow(base, e, P.p, order=P.q) == pow(base, e, P.p)


class TestPromotionNeverEvictsARegisteredTable:
    """The roster-past-the-cache cliff: promotion used to evict tables their
    owner had registered, to build ones evicted before they paid off."""

    def test_full_of_registered_tables_means_native_pow(self, small_cache):
        keys = [pow(P.g, 100 + i, P.p) for i in range(12)]
        for key in keys:
            fastexp.precompute(key, P.p, P.q_bits, order=P.q)
        resident = [key for key in keys if fastexp.fixed_base(key, P.p)]
        assert resident == keys[-8:]  # registered tables rotate among themselves
        small_cache.clear()
        for _ in range(3):  # a roster loop, again and again
            for key in keys:
                _use(key, times=1)
        assert small_cache == []
        assert [key for key in keys if fastexp.fixed_base(key, P.p)] == resident

    def test_promoted_tables_rotate_among_themselves(self, small_cache):
        P.fixed_g()
        registered = [pow(P.g, 100 + i, P.p) for i in range(3)]
        for key in registered:
            fastexp.precompute(key, P.p, P.q_bits, order=P.q)
        coins = [pow(P.g, 200 + i, P.p) for i in range(7)]
        for coin in coins[:4]:
            _use(coin)
        assert len(fastexp._tables) == 8  # full: 4 registered, 4 promoted
        small_cache.clear()
        for coin in coins[4:]:  # first seen after the cache filled
            _use(coin)
            assert fastexp.fixed_base(coin, P.p) is not None
        assert small_cache == coins[4:]
        assert [coin for coin in coins if fastexp.fixed_base(coin, P.p)] == coins[3:]
        assert all(fastexp.fixed_base(key, P.p) for key in registered)
        assert fastexp.fixed_base(P.g, P.p).window == fastexp.SYSTEM_WINDOW

    def test_a_registration_evicts_promoted_tables_before_registered_ones(self, small_cache):
        roster = [pow(P.g, 100 + i, P.p) for i in range(4)]
        for key in roster:
            fastexp.precompute(key, P.p, P.q_bits, order=P.q)
        coins = [pow(P.g, 200 + i, P.p) for i in range(4)]
        for coin in coins:  # newer than every registered table
            _use(coin)
        late = [pow(P.g, 300 + i, P.p) for i in range(6)]
        for key in late[:4]:
            fastexp.precompute(key, P.p, P.q_bits, order=P.q)
        assert [key for key, _ in fastexp._tables] == roster + late[:4]  # not one coin key
        for key in late[4:]:  # nothing promoted is left: the oldest registered go
            fastexp.precompute(key, P.p, P.q_bits, order=P.q)
        assert [key for key, _ in fastexp._tables] == roster[2:] + late
        small_cache.clear()
        for _ in range(3):  # the roster outgrew the cache: no slot left to rotate through
            for key in roster + late + coins:
                _use(key, times=1)
        assert small_cache == []

    def test_naming_a_promoted_table_registers_it(self, small_cache):
        coin = pow(P.g, 300, P.p)
        _use(coin)
        promoted = fastexp.fixed_base(coin, P.p)
        assert fastexp.precompute(coin, P.p, P.q_bits, order=P.q) is promoted
        for i in range(7):
            fastexp.precompute(pow(P.g, 400 + i, P.p), P.p, P.q_bits, order=P.q)
        small_cache.clear()
        _use(pow(P.g, 500, P.p), times=3)
        assert small_cache == [] and fastexp.fixed_base(coin, P.p) is promoted


class TestForget:
    """A promoted table ends with its base (a deposited coin's key); a table
    its owner registered is never anybody else's to release."""

    def test_drops_a_promoted_table(self):
        coin = pow(P.g, 600, P.p)
        _use(coin)
        assert fastexp.fixed_base(coin, P.p) is not None
        fastexp.forget(coin, P.p)
        assert fastexp.fixed_base(coin, P.p) is None
        assert (coin, P.p) not in fastexp._use_counts
        _use(coin, times=1)  # a dead key seen again starts from nothing
        assert fastexp.fixed_base(coin, P.p) is None

    def test_drops_the_counter_of_a_base_seen_once(self):
        coin = pow(P.g, 601, P.p)
        _use(coin, times=1)
        assert fastexp._use_counts[(coin, P.p)] == 1
        fastexp.forget(coin, P.p)
        assert (coin, P.p) not in fastexp._use_counts

    def test_an_unknown_base_is_a_no_op(self):
        P.fixed_g()
        fastexp.forget(pow(P.g, 602, P.p), P.p)
        fastexp.forget(P.g, PARAMS_1024_160.p)  # same base, another modulus
        assert list(fastexp._tables) == [(P.g, P.p)]

    def test_never_drops_a_registered_table(self):
        from repro.core.judge import Judge

        judge = Judge(P)  # registers g's neighbour, the opening key
        judge.register("alice")  # ... and a roster key
        gpk = judge.group_public_key()
        named = [P.g, gpk.opening_key.y, gpk.roster[0]]
        P.fixed_g()
        tables = [fastexp.fixed_base(base, P.p) for base in named]
        assert all(table is not None for table in tables)
        for base in named:
            fastexp.forget(base, P.p)
            P.forget(base)  # the seam ``core`` reaches it through
        assert [fastexp.fixed_base(base, P.p) for base in named] == tables

    def test_a_promoted_table_somebody_then_named_stays(self):
        coin = pow(P.g, 603, P.p)
        _use(coin)
        table = fastexp.precompute(coin, P.p, P.q_bits, order=P.q)
        P.forget(coin)
        assert fastexp.fixed_base(coin, P.p) is table

    def test_params_forget_releases_a_promoted_key(self):
        coin = pow(P.g, 604, P.p)
        _use(coin)
        P.forget(coin)
        assert fastexp.fixed_base(coin, P.p) is None
