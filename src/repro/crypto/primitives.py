"""Low-level number-theoretic and hashing helpers.

These are the building blocks shared by every scheme in ``repro.crypto``:
secure randomness, Miller–Rabin primality testing, modular inverses, and the
hash-to-integer mapping used by Fiat–Shamir style constructions.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets

# Small primes used to cheaply reject composites before Miller-Rabin.
_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def randbelow(n: int) -> int:
    """Return a uniform random integer in ``[0, n)`` using the OS CSPRNG."""
    if n <= 0:
        raise ValueError("randbelow requires a positive bound")
    return secrets.randbelow(n)


def rand_range(low: int, high: int) -> int:
    """Return a uniform random integer in ``[low, high)``."""
    if high <= low:
        raise ValueError(f"empty range [{low}, {high})")
    return low + secrets.randbelow(high - low)


def rand_bits(bits: int) -> int:
    """Return a random integer with exactly ``bits`` bits (top bit set)."""
    if bits < 2:
        raise ValueError("need at least 2 bits")
    return secrets.randbits(bits - 1) | (1 << (bits - 1))


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller–Rabin primality test with ``rounds`` random bases.

    A composite passes all rounds with probability at most 4**-rounds, which
    at the default of 40 rounds is far below any practical concern.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2**r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rand_range(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    while True:
        candidate = rand_bits(bits) | 1
        if is_probable_prime(candidate):
            return candidate


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m`` (``m`` need not be prime)."""
    inv = pow(a, -1, m)
    return inv


class NotInvertibleError(ValueError):
    """A value handed to :func:`batch_modinv` is not a unit of the modulus."""


def batch_modinv(values: list[int], m: int) -> list[int]:
    """Inverses of all ``values`` modulo ``m`` from one inversion (Montgomery's
    trick: invert the running product, then peel factors off back to front)."""
    prefixes = []
    acc = 1
    for value in values:
        prefixes.append(acc)
        acc = (acc * value) % m
    try:
        acc = pow(acc, -1, m)
    except ValueError:
        raise NotInvertibleError("a value shares a factor with the modulus") from None
    inverses = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        inverses[i] = (prefixes[i] * acc) % m
        acc = (acc * values[i]) % m
    return inverses


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data``."""
    return hashlib.sha256(data).digest()


def hash_to_int(*parts: bytes, modulus: int) -> int:
    """Map the concatenation of ``parts`` to an integer in ``[0, modulus)``.

    Used for Fiat–Shamir challenges and DSA message digests.  Each part is
    length-prefixed so the mapping is injective over the tuple of parts, and
    the digest is extended (counter mode) until it covers the modulus size,
    then reduced.  The reduction bias is negligible because we generate at
    least 64 bits beyond the modulus size.
    """
    if modulus <= 1:
        raise ValueError("modulus must exceed 1")
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    seed = h.digest()
    need = (modulus.bit_length() + 64 + 7) // 8
    out = b""
    counter = 0
    while len(out) < need:
        out += hashlib.sha256(seed + counter.to_bytes(4, "big")).digest()
        counter += 1
    return int.from_bytes(out[:need], "big") % modulus


def int_to_bytes(n: int) -> bytes:
    """Minimal big-endian encoding of a non-negative integer (b"\\x00" for 0)."""
    if n < 0:
        raise ValueError("cannot encode negative integers")
    length = max(1, (n.bit_length() + 7) // 8)
    return n.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Inverse of :func:`int_to_bytes`."""
    return int.from_bytes(data, "big")


def constant_time_eq(a: bytes, b: bytes) -> bool:
    """Constant-time byte-string comparison (wraps :mod:`hmac`)."""
    return hmac.compare_digest(a, b)
