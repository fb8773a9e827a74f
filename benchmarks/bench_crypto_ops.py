"""Microbenchmarks for every cryptographic primitive in the substrate.

Not a paper artifact — engineering instrumentation for the library itself.
Runs at the 512-bit test size so the whole suite stays fast; Table 2's bench
covers the paper-size 1024-bit DSA numbers.

Two entry points:

* ``pytest benchmarks/bench_crypto_ops.py --benchmark-only`` — pytest-benchmark
  timings for each primitive (including the roster-16 group operations and
  the batch verifier).
* ``python benchmarks/bench_crypto_ops.py [--quick]`` — compares the
  accelerated hot paths (fixed-base tables, multi-exp, batch verification;
  see DESIGN.md §1.1) against in-file replicas of the pre-acceleration
  implementations and writes machine-readable speedups to
  ``benchmarks/out/BENCH_crypto.json`` (``BENCH_crypto_quick.json`` under
  ``--quick``; the floors are rows of ``check.py``), plus the byte-wide table
  of the two system-wide bases against the cached width, and the roster curve
  (group sign / exact verify / hinted verify / batch-10 at roster 16…1024: the
  scheme's linear term as a committed number).  ``--quick`` restricts to the
  512-bit group, rosters 16 and 64, and fewer repetitions (the CI smoke
  configuration).
"""

import statistics
import sys
import time

import pytest

from _common import report_main

from repro.crypto import fastexp, primitives
from repro.crypto.dsa import dsa_batch_verify, dsa_generate, dsa_sign, dsa_verify
from repro.crypto.elgamal import elgamal_decrypt, elgamal_encrypt, elgamal_generate
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group_signature import (
    GroupManager,
    GroupSignature,
    GroupSignatureError,
    _challenge_hash,
    _ciphertext_tables,
    group_batch_verify,
    group_sign,
    group_verify,
    group_verify_exact,
)
from repro.crypto.hashchain import HashChain, verify_chain_link
from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512
from repro.crypto.schnorr import schnorr_batch_verify, schnorr_prove, schnorr_verify
from repro.crypto.shamir import combine_shares, split_secret

P = PARAMS_TEST_512

#: Batch size for the batch-verification benches (a plausible sync/deposit
#: burst at the broker).
BATCH = 32


@pytest.fixture(scope="module")
def keypair():
    return dsa_generate(P)


@pytest.fixture(scope="module")
def group():
    manager = GroupManager(P)
    members = [manager.register(f"m{i}") for i in range(8)]
    return manager, members, manager.public_key()


@pytest.fixture(scope="module")
def group16():
    manager = GroupManager(P)
    members = [manager.register(f"m{i}") for i in range(16)]
    return manager, members, manager.public_key()


def test_bench_dsa_keygen(benchmark):
    benchmark(dsa_generate, P)


def test_bench_dsa_sign(benchmark, keypair):
    benchmark(dsa_sign, keypair, b"message")


def test_bench_dsa_verify(benchmark, keypair):
    signature = dsa_sign(keypair, b"message")
    assert benchmark(dsa_verify, keypair.public, b"message", signature)


def test_bench_dsa_batch_verify(benchmark, keypair):
    items = [
        (keypair.public, msg, dsa_sign(keypair, msg))
        for msg in (b"message-%d" % i for i in range(BATCH))
    ]
    assert benchmark(dsa_batch_verify, items)


def test_bench_schnorr_prove(benchmark, keypair):
    benchmark(schnorr_prove, keypair, b"context")


def test_bench_schnorr_verify(benchmark, keypair):
    proof = schnorr_prove(keypair, b"context")
    assert benchmark(schnorr_verify, keypair.public, proof, b"context")


def test_bench_schnorr_batch_verify(benchmark, keypair):
    items = [
        (keypair.public, schnorr_prove(keypair, ctx), ctx)
        for ctx in (b"context-%d" % i for i in range(BATCH))
    ]
    assert benchmark(schnorr_batch_verify, items)


def test_bench_elgamal_roundtrip(benchmark):
    key = elgamal_generate(P)
    element = pow(P.g, 12345, P.p)

    def roundtrip():
        return elgamal_decrypt(key, elgamal_encrypt(key.public, element))

    assert benchmark(roundtrip) == element


def test_bench_group_sign(benchmark, group):
    _manager, members, gpk = group
    benchmark(group_sign, gpk, members[0], b"message")


def test_bench_group_verify(benchmark, group):
    _manager, members, gpk = group
    signature = group_sign(gpk, members[0], b"message")
    assert benchmark(group_verify, gpk, b"message", signature)


def test_bench_group_sign_roster16(benchmark, group16):
    _manager, members, gpk = group16
    benchmark(group_sign, gpk, members[0], b"message")


def test_bench_group_verify_roster16(benchmark, group16):
    _manager, members, gpk = group16
    signature = group_sign(gpk, members[0], b"message")
    assert benchmark(group_verify, gpk, b"message", signature)


def test_bench_group_open(benchmark, group):
    manager, members, gpk = group
    signature = group_sign(gpk, members[3], b"message")
    assert benchmark(manager.open, signature) == "m3"


def test_bench_shamir_split_combine(benchmark):
    def roundtrip():
        shares = split_secret(123456789, n=5, k=3, modulus=P.q)
        return combine_shares(shares[:3], P.q)

    assert benchmark(roundtrip) == 123456789


def test_bench_hashchain_build(benchmark):
    benchmark(HashChain, 100)


def test_bench_hashchain_verify(benchmark):
    chain = HashChain(100)
    index, link = chain.pay(50)
    assert benchmark(verify_chain_link, chain.anchor, index, link)


# ---------------------------------------------------------------------------
# Accelerated vs pre-acceleration baselines (``__main__`` mode)
# ---------------------------------------------------------------------------
#
# The baselines below are line-for-line replicas of the implementations this
# repo shipped before the fastexp layer landed: plain ``pow`` everywhere, a
# full subgroup check per verification, and per-clause modular inversions in
# the group verifier.  They exist only to measure the acceleration honestly
# against the real before-state, not an artificial strawman.
#
# ``baseline_group_sign`` and ``baseline_group_verify`` are also the oracles
# of the differential tests in ``tests/crypto/test_group_signature.py``.
# Retirement condition (DESIGN.md §1.1, "When a kept oracle may go"): golden
# vectors cover the oracle's accept *and* reject set, and the kernel it
# shadows has gone 5 PRs unedited.  At PR 23 both kernels date from PR 17,
# but the golden file pins only signatures that must verify — not met.


def baseline_dsa_verify(public, message, signature) -> bool:
    """Pre-acceleration ``dsa_verify``: naked pows, uncached subgroup check."""
    params = public.params
    r, s = signature.r, signature.s
    if not (0 < r < params.q and 0 < s < params.q):
        return False
    if not (0 < public.y < params.p and pow(public.y, params.q, params.p) == 1):
        return False
    digest = primitives.hash_to_int(message, modulus=params.q)
    w = primitives.modinv(s, params.q)
    u1 = (digest * w) % params.q
    u2 = (r * w) % params.q
    v = (pow(params.g, u1, params.p) * pow(public.y, u2, params.p)) % params.p % params.q
    return v == r


def baseline_group_verify(gpk, message, signature) -> bool:
    """Pre-acceleration ``group_verify``: per-clause pows and inversions."""
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    n = len(gpk.roster)
    if not (len(signature.challenges) == len(signature.responses_r) == len(signature.responses_x) == n):
        return False
    c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
    if not (0 < c1 < p and 0 < c2 < p):
        return False
    c1_inv = primitives.modinv(c1, p)
    c2_inv = primitives.modinv(c2, p)
    commitments = []
    for j, h_j in enumerate(gpk.roster):
        c_j = signature.challenges[j]
        s_r = signature.responses_r[j]
        s_x = signature.responses_x[j]
        if not (0 <= c_j < q and 0 <= s_r < q and 0 <= s_x < q):
            return False
        ratio_inv = (h_j * c2_inv) % p
        t1 = (pow(g, s_r, p) * pow(c1_inv, c_j, p)) % p
        t2 = (pow(y, s_r, p) * pow(ratio_inv, c_j, p)) % p
        t3 = (pow(g, s_x, p) * pow(primitives.modinv(h_j, p), c_j, p)) % p
        commitments.append((t1, t2, t3))
    total = _challenge_hash(gpk, signature.ciphertext, commitments, message)
    return sum(signature.challenges) % q == total


def baseline_group_sign(gpk, member, message) -> GroupSignature:
    """The signer before witness-aware signing, line for line.

    It simulates each foreign clause *as a verifier would*: seven table
    exponentiations per clause, two of them on throw-away tables for the
    fresh ``c1``/``c2``.  Same draws in the same order as ``group_sign``, so
    under seeded entropy the two return equal signatures (the differential
    test in ``tests/crypto/test_group_signature.py`` relies on that).
    """
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    idx = gpk.roster_index(member.h)
    if idx is None:
        raise GroupSignatureError("signer is not in the roster snapshot")

    r = params.random_exponent()
    c1 = params.pow_g(r)
    c2 = (member.h * fastexp.mod_pow(y, r, p, order=q)) % p
    ciphertext = ElGamalCiphertext(c1=c1, c2=c2)

    n = len(gpk.roster)
    challenges = [0] * n
    responses_r = [0] * n
    responses_x = [0] * n
    commitments = [(0, 0, 0)] * n

    tables = _ciphertext_tables(params, c1, c2, n)
    for j, h_j in enumerate(gpk.roster):
        if j == idx:
            continue
        c_j = primitives.randbelow(q)
        s_r = primitives.randbelow(q)
        s_x = primitives.randbelow(q)
        t1 = fastexp.multi_exp(((g, s_r), (c1, q - c_j)), p, order=q, tables=tables)
        t2 = fastexp.multi_exp(
            ((y, s_r), (h_j, c_j), (c2, q - c_j)), p, order=q, tables=tables
        )
        t3 = fastexp.multi_exp(((g, s_x), (h_j, q - c_j)), p, order=q)
        challenges[j] = c_j
        responses_r[j] = s_r
        responses_x[j] = s_x
        commitments[j] = (t1, t2, t3)

    a = params.random_exponent()
    b = params.random_exponent()
    commitments[idx] = (
        params.pow_g(a),
        fastexp.mod_pow(y, a, p, order=q),
        params.pow_g(b),
    )

    total = _challenge_hash(gpk, ciphertext, commitments, message)
    c_idx = (total - sum(challenges)) % q
    challenges[idx] = c_idx
    responses_r[idx] = (a + c_idx * r) % q
    responses_x[idx] = (b + c_idx * member.x) % q

    return GroupSignature(
        ciphertext=ciphertext,
        challenges=tuple(challenges),
        responses_r=tuple(responses_r),
        responses_x=tuple(responses_x),
        commitments=tuple(commitments),
    )


def _time_us(fn, repeat: int) -> float:
    """Median wall-clock time of ``fn()`` in microseconds."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


def _compare(name, baseline, accelerated, repeat, results) -> None:
    """Time both implementations and record the speedup."""
    assert baseline() and accelerated(), f"{name}: implementations disagree"
    base_us = _time_us(baseline, repeat)
    accel_us = _time_us(accelerated, repeat)
    results[name] = {
        "baseline_us": round(base_us, 2),
        "accelerated_us": round(accel_us, 2),
        "speedup": round(base_us / accel_us, 3) if accel_us else None,
    }
    print(f"  {name:<42} {base_us:>10.1f}us -> {accel_us:>8.1f}us   {base_us / accel_us:5.2f}x")


#: Exponentiations per timed sample in the ``fixed_base_pow`` row.
POW_SAMPLE = 64


def _footprint(table: fastexp.FixedBaseTable) -> dict:
    """What one table costs to hold: its entries and their bytes."""
    rows = table._rows
    size = sys.getsizeof(rows) + sum(sys.getsizeof(row) for row in rows)
    size += sum(sys.getsizeof(entry) for row in rows for entry in row)
    return {"window": table.window, "entries": sum(len(row) for row in rows), "bytes": size}


def compare_fixed_base_pow(params, repeat: int, results: dict) -> None:
    """``g**e`` through a :data:`fastexp.CACHED_WINDOW` table (what ``g`` and
    the opening key had) against the byte-wide table they have now."""
    narrow = fastexp.FixedBaseTable(params.g, params.p, params.q_bits, order=params.q)
    wide = params.fixed_g()
    assert (narrow.window, wide.window) == (fastexp.CACHED_WINDOW, fastexp.SYSTEM_WINDOW)
    exponents = [params.random_exponent() for _ in range(POW_SAMPLE)]
    assert [narrow.pow(e) for e in exponents] == [wide.pow(e) for e in exponents]
    _compare(
        "fixed_base_pow",
        lambda: [narrow.pow(e) for e in exponents],
        lambda: [wide.pow(e) for e in exponents],
        repeat,
        results,
    )
    results["fixed_base_pow"].update(
        pows_per_sample=POW_SAMPLE, baseline_table=_footprint(narrow), accelerated_table=_footprint(wide)
    )


#: Signatures per batch in the roster curve's batch row.
CURVE_BATCH = 10


def roster_curve(params, rosters, repeat: int) -> dict:
    """Group-signature cost against roster size, one fresh group per point.

    Each point starts from cold caches and registers its own roster, so the
    points do not depend on their order.  Past ``fastexp._MAX_TABLES``
    members the roster no longer fits the fixed-base table cache: the keys
    registered last keep their tables and the rest cost a native ``pow``
    each — as a deployment would pay them.
    """
    curve: dict = {}
    for n in rosters:
        fastexp.clear_caches()
        manager = GroupManager(params)
        members = [manager.register(f"m{i}") for i in range(n)]
        gpk = manager.public_key()
        items = [(b"m%d" % i, group_sign(gpk, members[i % n], b"m%d" % i)) for i in range(CURVE_BATCH)]
        message, signature = items[0]
        assert group_verify(gpk, message, signature)  # also warms the tables
        assert group_verify_exact(gpk, message, signature)
        reps = max(3, repeat * 16 // n)
        row = {
            "sign_us": _time_us(lambda: group_sign(gpk, members[0], message), reps),
            "verify_exact_us": _time_us(lambda: group_verify_exact(gpk, message, signature), reps),
            "verify_hinted_us": _time_us(lambda: group_verify(gpk, message, signature), reps),
            f"batch{CURVE_BATCH}_per_sig_us": _time_us(lambda: group_batch_verify(gpk, items), reps)
            / CURVE_BATCH,
        }
        curve[str(n)] = {"repeat": reps, **{key: round(value, 1) for key, value in row.items()}}
        print(f"  roster {n:<5}" + "".join(f"  {key} {value / 1e3:8.2f}ms" for key, value in row.items()))
    return curve


def run_comparison(quick: bool = False) -> dict:
    """Benchmark accelerated hot paths against the pre-acceleration replicas."""
    fastexp.clear_caches()
    param_sets = [("512_160", PARAMS_TEST_512)]
    if not quick:
        param_sets.append(("1024_160", PARAMS_1024_160))
    repeat = 10 if quick else 30
    report: dict = {"repeat": repeat, "groups": {}, "roster_curve": {}}

    for label, params in param_sets:
        print(f"[{label}]")
        results: dict = {}
        keypair = dsa_generate(params)
        message = b"bench message"
        signature = dsa_sign(keypair, message)
        compare_fixed_base_pow(params, repeat, results)
        # Warm the promotion cache the way steady-state protocol traffic
        # would: the broker sees each signer key repeatedly.
        for _ in range(fastexp.PROMOTE_AFTER + 1):
            dsa_verify(keypair.public, message, signature)
        _compare(
            "dsa_verify",
            lambda: baseline_dsa_verify(keypair.public, message, signature),
            lambda: dsa_verify(keypair.public, message, signature),
            repeat,
            results,
        )

        items = [
            (keypair.public, msg, dsa_sign(keypair, msg))
            for msg in (b"batch-%d" % i for i in range(BATCH))
        ]
        _compare(
            f"dsa_verify_batch{BATCH}",
            lambda: all(baseline_dsa_verify(pk, m, sig) for pk, m, sig in items),
            lambda: dsa_batch_verify(items),
            max(3, repeat // 3),
            results,
        )

        manager = GroupManager(params)
        members = [manager.register(f"m{i}") for i in range(16)]
        gpk = manager.public_key()
        gsig = group_sign(gpk, members[0], message)
        group_verify(gpk, message, gsig)  # warm roster/opening tables
        _compare(
            "group_verify_roster16",
            lambda: baseline_group_verify(gpk, message, gsig),
            lambda: group_verify(gpk, message, gsig),
            max(3, repeat // 3),
            results,
        )
        _compare(
            "group_verify_hinted_roster16",
            lambda: group_verify_exact(gpk, message, gsig),
            lambda: group_verify(gpk, message, gsig),
            repeat,
            results,
        )
        _compare(
            "group_sign_roster16",
            lambda: baseline_group_sign(gpk, members[0], message),
            lambda: group_sign(gpk, members[0], message),
            repeat,
            results,
        )
        report["groups"][label] = results

    rosters = (16, 64) if quick else (16, 64, 256, 1024)
    for label, params in param_sets:
        print(f"[{label}] roster curve")
        report["roster_curve"][label] = roster_curve(params, rosters, repeat)

    return report


if __name__ == "__main__":
    report_main("BENCH_crypto", run_comparison, __doc__)
