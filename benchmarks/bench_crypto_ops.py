"""Microbenchmarks for every cryptographic primitive in the substrate.

Not a paper artifact — engineering instrumentation for the library itself.
Runs at the 512-bit test size so the whole suite stays fast; Table 2's bench
covers the paper-size 1024-bit DSA numbers.

Two entry points:

* ``pytest benchmarks/bench_crypto_ops.py --benchmark-only`` — pytest-benchmark
  timings for each primitive (including the roster-16 group operations and
  the batch verifier).
* ``python benchmarks/bench_crypto_ops.py [--quick]`` — compares the
  accelerated hot paths (the exponentiation kernel, batch verification; see
  DESIGN.md §1.1) against in-file replicas of the pre-acceleration
  implementations and writes machine-readable speedups to
  ``benchmarks/out/BENCH_crypto.json`` (``BENCH_crypto_quick.json`` under
  ``--quick``; the floors are rows of ``check.py``), plus the kernel's
  ``mod_pow`` against built-in ``pow`` on the same powers, one fold of a group
  signature with DSA signatures against separate checks at the owner's shape
  (a holder envelope's two layers) and the broker's (those, the coin
  certificate and the proof binding), and the roster curve
  (group sign / exact verify / hinted verify / batch-10 at roster 16…1024: the
  scheme's linear term as a committed number).  ``--quick`` restricts to the
  512-bit group, rosters 16 and 64, and fewer repetitions (the CI smoke
  configuration).
"""

import secrets
import statistics
import time

import pytest

from _common import report_main

from repro.crypto import fastexp, primitives, schnorr
from repro.crypto.dsa import dsa_batch_verify, dsa_generate, dsa_sign, dsa_verify
from repro.crypto.elgamal import elgamal_decrypt, elgamal_encrypt, elgamal_generate
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group_signature import (
    GroupManager,
    GroupSignature,
    GroupSignatureError,
    _challenge_hash,
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
# ``baseline_group_sign`` and ``baseline_group_verify`` were also the oracles
# of differential tests in ``tests/crypto/test_group_signature.py``; those
# are retired (DESIGN.md §1.1, "When a kept oracle may go"): golden vectors
# pin the oracles' accept *and* reject sets (golden_group_oracles.json), and
# the kernels went 5 PRs unedited.  The two stay here for the speed-up rows
# of BENCH_crypto.json (and TestSignerPowers counts the signer's powers).


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
    """The signer before witness-aware signing, on built-in ``pow``.

    It simulates each foreign clause *as a verifier would*: seven
    exponentiations per clause, two of them on the fresh ``c1``/``c2``.
    Same draws in the same order as ``group_sign``, so under seeded entropy
    the two return equal signatures (the differential test in
    ``tests/crypto/test_group_signature.py`` relies on that).
    """
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    idx = gpk.roster_index(member.h)
    if idx is None:
        raise GroupSignatureError("signer is not in the roster snapshot")

    r = params.random_exponent()
    c1 = pow(g, r, p)
    c2 = (member.h * pow(y, r, p)) % p
    ciphertext = ElGamalCiphertext(c1=c1, c2=c2)

    n = len(gpk.roster)
    challenges = [0] * n
    responses_r = [0] * n
    responses_x = [0] * n
    commitments = [(0, 0, 0)] * n

    for j, h_j in enumerate(gpk.roster):
        if j == idx:
            continue
        c_j = primitives.randbelow(q)
        s_r = primitives.randbelow(q)
        s_x = primitives.randbelow(q)
        t1 = (pow(g, s_r, p) * pow(c1, q - c_j, p)) % p
        t2 = (pow(y, s_r, p) * pow(h_j, c_j, p) * pow(c2, q - c_j, p)) % p
        t3 = (pow(g, s_x, p) * pow(h_j, q - c_j, p)) % p
        challenges[j] = c_j
        responses_r[j] = s_r
        responses_x[j] = s_x
        commitments[j] = (t1, t2, t3)

    a = params.random_exponent()
    b = params.random_exponent()
    commitments[idx] = (pow(g, a, p), pow(y, a, p), pow(g, b, p))

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


def baseline_schnorr_batch_verify(items) -> bool:
    """``schnorr_batch_verify`` before the shared fold, on built-in ``pow``:
    a native ``pow`` per commitment, the ``g`` side inverted; same-group
    items only."""
    params = items[0][0].params
    p, q = params.p, params.q
    g_exponent = 0
    commitment_product = 1
    y_exponents: dict[int, int] = {}
    for public, proof, context in items:
        if not params.is_element(public.y):
            return False
        if not (0 < proof.commitment < p) or not (0 <= proof.response < q):
            return False
        c = schnorr._challenge(public, proof.commitment, context)
        multiplier = secrets.randbits(fastexp.BATCH_RANDOMIZER_BITS) | 1
        g_exponent = (g_exponent + multiplier * proof.response) % q
        commitment_product = (commitment_product * pow(proof.commitment, multiplier, p)) % p
        y_exponents[public.y] = (y_exponents.get(public.y, 0) + multiplier * c) % q
    rhs = commitment_product
    for y, exponent in y_exponents.items():
        rhs = (rhs * pow(y, exponent, p)) % p
    ratio = (rhs * primitives.modinv(pow(params.g, g_exponent, p), p)) % p
    return pow(ratio, params.cofactor, p) == 1


def _time_us(fn, repeat: int) -> float:
    """Median wall-clock time of ``fn()`` in microseconds."""
    samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1e6)
    return statistics.median(samples)


def _compare(name, baseline, accelerated, repeat, results) -> None:
    """Time both implementations and record the speedup: sample by sample,
    alternating which goes first, so a host that drifts slows both alike."""
    assert baseline() and accelerated(), f"{name}: implementations disagree"
    samples: tuple[list[float], list[float]] = ([], [])
    for i in range(repeat):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            samples[side].append(_time_us((baseline, accelerated)[side], 1))
    base_us, accel_us = (statistics.median(times) for times in samples)
    results[name] = {
        "baseline_us": round(base_us, 2),
        "accelerated_us": round(accel_us, 2),
        "speedup": round(base_us / accel_us, 3) if accel_us else None,
    }
    print(f"  {name:<42} {base_us:>10.1f}us -> {accel_us:>8.1f}us   {base_us / accel_us:5.2f}x")


#: Exponentiations per timed sample in the ``kernel_pow`` row.
POW_SAMPLE = 64


def compare_kernel_pow(params, repeat: int, results: dict) -> None:
    """``mod_pow`` (the libcrypto kernel) against built-in ``pow``: the same
    base, the same ``q``-sized exponents, the same integers out."""
    base = params.pow_g(params.random_exponent())
    exponents = [params.random_exponent() for _ in range(POW_SAMPLE)]

    def builtin():
        return [pow(base, e, params.p) for e in exponents]

    def kernel():
        return [fastexp.mod_pow(base, e, params.p) for e in exponents]

    assert kernel() == builtin()
    _compare("kernel_pow", builtin, kernel, repeat, results)
    results["kernel_pow"]["pows_per_sample"] = POW_SAMPLE


def compare_sites(params, gpk, member, repeat: int, results: dict) -> None:
    """One fold of a group signature with DSA signatures against separate
    checks: the broker's site, and the owner's shape — which the owner does
    not fold, for soundness (DESIGN.md §1.1, "One fold"), so that row is
    what it gives up.  A fresh holder key (and coin key) per sample, as every
    holder operation has; the broker's key warm."""
    broker = dsa_generate(params)
    dsa_verify(broker.public, b"warm", dsa_sign(broker, b"warm"))

    def samples():
        """``repeat + 1`` requests: the group-signed inner triple, then the
        certificate and proof-binding triples."""
        made = []
        for i in range(repeat + 1):
            holder, coin = dsa_generate(params), dsa_generate(params)
            signed = [(holder, b"inner-%d" % i), (broker, b"cert-%d" % i), (coin, b"proof-%d" % i)]
            triples = [(key.public, message, dsa_sign(key, message)) for key, message in signed]
            inner = triples[0][1]  # stands for the sealed envelope the group signature covers
            made.append((triples, (inner, group_sign(gpk, member, inner))))
        return made

    def separate(owner):
        taken = iter(samples())

        def check():
            triples, (inner, gsig) = next(taken)
            if owner:  # DualSignedMessage.verify
                return dsa_verify(*triples[0]) and group_verify(gpk, inner, gsig)
            return group_verify(gpk, inner, gsig) and dsa_batch_verify(triples)

        return check

    def folded(owner):
        taken = iter(samples())

        def check():
            triples, group = next(taken)
            return dsa_batch_verify(triples[:1] if owner else triples, groups=[(gpk, [group])])

        return check

    for name, owner in (("owner_site_roster16", True), ("broker_site_roster16", False)):
        _compare(name, separate(owner), folded(owner), repeat, results)


#: Signatures per batch in the roster curve's batch row.
CURVE_BATCH = 10


def roster_curve(params, rosters, repeat: int) -> dict:
    """Group-signature cost against roster size, one fresh group per point.

    Each point starts from cold caches and registers its own roster, so the
    points do not depend on their order.
    """
    curve: dict = {}
    for n in rosters:
        fastexp.clear_caches()
        manager = GroupManager(params)
        members = [manager.register(f"m{i}") for i in range(n)]
        gpk = manager.public_key()
        items = [(b"m%d" % i, group_sign(gpk, members[i % n], b"m%d" % i)) for i in range(CURVE_BATCH)]
        message, signature = items[0]
        assert group_verify(gpk, message, signature)
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
        compare_kernel_pow(params, repeat, results)
        # Warm the membership memo the way steady-state protocol traffic
        # would: the broker sees each signer key repeatedly.
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
        proofs = [
            (keypair.public, schnorr_prove(keypair, ctx), ctx)
            for ctx in (b"schnorr-%d" % i for i in range(BATCH))
        ]
        _compare(
            f"schnorr_batch_verify{BATCH}",
            lambda: baseline_schnorr_batch_verify(proofs),
            lambda: schnorr_batch_verify(proofs),
            repeat,
            results,
        )

        manager = GroupManager(params)
        members = [manager.register(f"m{i}") for i in range(16)]
        gpk = manager.public_key()
        gsig = group_sign(gpk, members[0], message)
        group_verify(gpk, message, gsig)  # warm the membership memo
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
        compare_sites(params, gpk, members[1], repeat, results)
        report["groups"][label] = results

    rosters = (16, 64) if quick else (16, 64, 256, 1024)
    for label, params in param_sets:
        print(f"[{label}] roster curve")
        report["roster_curve"][label] = roster_curve(params, rosters, repeat)

    return report


if __name__ == "__main__":
    report_main("BENCH_crypto", run_comparison, __doc__)
