"""Modular exponentiation on libcrypto, and the one batch test (the crypto hot path).

Every scheme in :mod:`repro.crypto` bottoms out in modular exponentiation.
The schemes themselves are written here from scratch; the arithmetic under
them is not: every power goes to one private kernel, OpenSSL's
``BN_mod_exp_mont`` on the ``libcrypto`` that :mod:`hashlib` already links
(every SHA-256 of this package runs there too), reached through
:mod:`ctypes` on hashlib's own ``_hashlib`` module, with one Montgomery
context per modulus.  At our sizes
it is about ten times CPython's ``pow`` (DESIGN.md §1.1, "One
exponentiation kernel").

* :func:`mod_pow` — ``pow(base, exponent, modulus)``, the exponent reduced
  by the base's order when one is given.
* :func:`multi_exp` — ``prod(base**exp)``, one kernel product: one
  ``BN_mod_exp_mont`` per base, each power multiplied (``BN_mod_mul``) into
  one accumulator BIGNUM, the product read back once.  A term stays in
  libcrypto: a 64-bit ``Fold`` hint term at 512 bit cost about 14 µs with a
  readback and a Python multiply per term, and about 12 µs here.
* :func:`powers` — ``[base**exp]`` for independent terms, one kernel pass:
  one context lookup and one loop for the whole list (``group_sign``'s
  ``4(n-1) + 5`` powers at roster ``n``).
* :func:`is_member` — the memoized subgroup test ``x**q == 1``.
* :class:`Fold` — the one randomized batch test.

Built-in ``pow`` serves only what Montgomery arithmetic cannot take: a
negative exponent (a modular inverse), a modulus of at most 1, and an even
modulus (:func:`powers` takes none of them: its callers' exponents are
reduced by an order and their modulus is a group's prime).  There is no
other path and no switch: the kernel loads on the first exponentiation, not
at import (importing a protocol role loads no :mod:`ctypes`), and a process
without libcrypto raises :class:`KernelError` there, saying why.
Exponentiation is variable-time, like the CPython ``pow`` it replaces
(docs/SECURITY.md).

Threads and processes: one thread per process does crypto.  The kernel's
scratch numbers (the product's accumulator among them) and ``BN_CTX`` are
process-wide and unlocked, which a second thread exponentiating at the same
time would corrupt; no caller does.  A forked child (the parallel sweep
runner's workers) inherits the loaded library and its contexts and computes
the same powers and products; nothing is shipped between processes.
"""

from __future__ import annotations

import secrets
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.params import DlogParams

__all__ = [
    "Fold",
    "KernelError",
    "mod_pow",
    "multi_exp",
    "powers",
    "is_member",
    "clear_caches",
]

#: Bit width of the random multipliers in a :class:`Fold`: an equation that
#: does not hold survives the combination with probability ~2**-64.
BATCH_RANDOMIZER_BITS = 64

_MAX_MEMBERS = 8192  # memoized positive membership checks
#: Montgomery contexts the kernel keeps, one per odd modulus, oldest out
#: first: the Schnorr groups are all a process uses.
_MAX_MODULI = 16


class KernelError(RuntimeError):
    """libcrypto could not be loaded, or one of its bignum calls failed."""


class _Kernel:
    """``BN_mod_exp_mont`` on libcrypto, one ``BN_MONT_CTX`` per odd modulus.

    Only return types are declared: every pointer is held as a
    ``c_void_p`` and every length is a C ``int``, which ctypes passes
    without the per-argument conversion ``argtypes`` would cost on each of
    the four calls a term makes.
    """

    def __init__(self, path: str) -> None:
        import ctypes

        try:
            # dlsym on this handle searches the module's own dependencies: the
            # BN_* symbols resolve in exactly the libcrypto hashlib runs on.
            lib = ctypes.CDLL(path)
            for name in ("BN_new", "BN_CTX_new", "BN_bin2bn", "BN_MONT_CTX_new"):
                getattr(lib, name).restype = ctypes.c_void_p
            for name in ("BN_free", "BN_MONT_CTX_free"):
                getattr(lib, name).restype = None
            for name in ("BN_bn2binpad", "BN_MONT_CTX_set", "BN_mod_exp_mont", "BN_mod_mul"):
                getattr(lib, name).restype = ctypes.c_int
        except (OSError, AttributeError) as error:
            raise KernelError(f"{path} links no usable libcrypto: {error}") from error
        self._lib = lib
        self._pointer = ctypes.c_void_p
        self._buffer = ctypes.create_string_buffer
        self._bin2bn = lib.BN_bin2bn
        self._bn2binpad = lib.BN_bn2binpad
        self._exp = lib.BN_mod_exp_mont
        self._mul = lib.BN_mod_mul
        self._ctx = self._made(lib.BN_CTX_new(), "BN_CTX_new")
        # Scratch, overwritten by every product: the running product, one
        # term's power, its base, its exponent.
        self._acc, self._r, self._a, self._e = (
            self._made(lib.BN_new(), "BN_new") for _ in range(4)
        )
        #: modulus -> (its BIGNUM, its BN_MONT_CTX, its byte length, an output buffer)
        self._moduli: OrderedDict[int, tuple] = OrderedDict()

    def _made(self, pointer: int | None, call: str):
        if not pointer:
            raise KernelError(f"{call} failed")
        return self._pointer(pointer)

    def _context(self, modulus: int) -> tuple:
        lib = self._lib
        length = (modulus.bit_length() + 7) // 8
        bn = self._made(self._bin2bn(modulus.to_bytes(length, "big"), length, None), "BN_bin2bn")
        mont = self._pointer(lib.BN_MONT_CTX_new())
        if not mont.value or lib.BN_MONT_CTX_set(mont, bn, self._ctx) != 1:
            lib.BN_MONT_CTX_free(mont)
            lib.BN_free(bn)
            raise KernelError("BN_MONT_CTX_set failed")
        entry = self._moduli[modulus] = (bn, mont, length, self._buffer(length))
        while len(self._moduli) > _MAX_MODULI:
            self._release(self._moduli.popitem(last=False)[1])
        return entry

    def _release(self, entry: tuple) -> None:
        self._lib.BN_MONT_CTX_free(entry[1])
        self._lib.BN_free(entry[0])

    def clear(self) -> None:
        """Free every Montgomery context (the library stays loaded)."""
        while self._moduli:
            self._release(self._moduli.popitem()[1])

    def powers(self, terms, modulus: int) -> list[int]:
        """``[base**exponent % modulus]`` over independent ``(base, exponent)``
        terms, every ``exponent >= 0``, for an odd ``modulus > 1``.

        One context lookup and one loop for the whole list: a
        ``BN_mod_exp_mont`` and a readback per term, in term order.
        """
        bn, mont, length, out = self._moduli.get(modulus) or self._context(modulus)
        bin2bn, exp, bn2binpad = self._bin2bn, self._exp, self._bn2binpad
        ctx, power, a, e = self._ctx, self._r, self._a, self._e
        results = []
        for base, exponent in terms:
            size = (exponent.bit_length() + 7) // 8
            if not bin2bn((base % modulus).to_bytes(length, "big"), length, a) or not bin2bn(
                exponent.to_bytes(size, "big"), size, e
            ):
                raise KernelError("BN_bin2bn failed")
            if exp(power, a, e, bn, ctx, mont) != 1:
                raise KernelError(f"BN_mod_exp_mont failed for a {modulus.bit_length()}-bit modulus")
            if bn2binpad(power, out, length) != length:
                raise KernelError("BN_bn2binpad failed")
            results.append(int.from_bytes(out.raw, "big"))
        return results

    def product(self, terms, modulus: int) -> int:
        """``prod(base**exponent) % modulus`` over ``(base, exponent)`` terms,
        every ``exponent >= 0``, for an odd ``modulus > 1``.

        One ``BN_mod_exp_mont`` per term, the first into the accumulator and
        each later one multiplied into it by ``BN_mod_mul``; the product is
        read back once.  The empty product is 1.
        """
        bn, mont, length, out = self._moduli.get(modulus) or self._context(modulus)
        bin2bn, exp, mul = self._bin2bn, self._exp, self._mul
        ctx, acc, power, a, e = self._ctx, self._acc, self._r, self._a, self._e
        into = acc
        for base, exponent in terms:
            size = (exponent.bit_length() + 7) // 8
            if not bin2bn((base % modulus).to_bytes(length, "big"), length, a) or not bin2bn(
                exponent.to_bytes(size, "big"), size, e
            ):
                raise KernelError("BN_bin2bn failed")
            if exp(into, a, e, bn, ctx, mont) != 1:
                raise KernelError(f"BN_mod_exp_mont failed for a {modulus.bit_length()}-bit modulus")
            if into is acc:
                into = power
            elif mul(acc, acc, power, bn, ctx) != 1:
                raise KernelError("BN_mod_mul failed")
        if into is acc:
            return 1
        if self._bn2binpad(acc, out, length) != length:
            raise KernelError("BN_bn2binpad failed")
        return int.from_bytes(out.raw, "big")


_kernel: _Kernel | None = None
_members: OrderedDict[tuple[int, int, int], bool] = OrderedDict()


def _load() -> _Kernel:
    """Load the kernel from ``_hashlib``, hashlib's OpenSSL module."""
    global _kernel
    try:
        import _hashlib
    except ImportError as error:
        raise KernelError(
            "modular exponentiation runs on the libcrypto that hashlib uses, and this "
            "interpreter's hashlib is not built on OpenSSL"
        ) from error
    _kernel = _Kernel(_hashlib.__file__)
    return _kernel


def _power(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``: the kernel, or built-in ``pow`` for
    a negative exponent, a modulus of at most 1 or an even one."""
    if exponent < 0 or modulus <= 1 or not modulus & 1:
        return pow(base, exponent, modulus)
    return (_kernel or _load()).product(((base, exponent),), modulus)


def powers(pairs, modulus: int) -> list[int]:
    """``[pow(base, exp, modulus)]`` for a sequence of independent ``(base, exp)``.

    One kernel pass (:meth:`_Kernel.powers`): the group signer's every power
    in one call.  Every ``exp`` is non-negative (reduce it by the base's
    order first, as :func:`mod_pow` does) and ``modulus`` is odd and above 1:
    a Schnorr group's ``p``.
    """
    return (_kernel or _load()).powers(pairs, modulus)


def clear_caches() -> None:
    """Drop the membership memo and the kernel's Montgomery contexts (test hook)."""
    _members.clear()
    if _kernel is not None:
        _kernel.clear()


def mod_pow(base: int, exponent: int, modulus: int, order: int | None = None) -> int:
    """``pow(base, exponent, modulus)`` on the kernel.

    ``order`` is the base's multiplicative order when known: a non-negative
    exponent is reduced by it first, which is what lets callers write
    ``base**-c`` as ``base**(order - c)``.
    """
    if order is not None and exponent > 0:
        exponent %= order
    return _power(base, exponent, modulus)


def multi_exp(pairs, modulus: int, order: int | None = None) -> int:
    """``prod(base**exp) mod modulus`` for a sequence of ``(base, exp)``.

    The product behind ``dsa_verify``'s ``g**u1 * y**u2``, the
    group-signature clause equations and the two sides of a :class:`Fold`:
    one kernel product.  ``order`` (the common multiplicative order of the
    bases, when known) reduces every exponent first, as in :func:`mod_pow`;
    without one, a negative exponent sends the product term by term through
    :func:`_power`, whose built-in ``pow`` takes that term.
    """
    terms = []
    negative = False
    for base, exponent in pairs:
        if order is not None:
            exponent %= order
        elif exponent < 0:
            negative = True
        if exponent:
            terms.append((base, exponent))
    if not negative and modulus > 1 and modulus & 1:
        return (_kernel or _load()).product(terms, modulus)
    result = 1
    for base, exponent in terms:
        result = result * _power(base, exponent, modulus) % modulus
    return result


class Fold:
    """One randomized small-exponent test over the equations of many signatures.

    Bellare–Garay–Rabin (1998): each scheme adds its equations as
    ``prod(base**exponent) == 1`` on the order-``q`` subgroup of ``params``:
    *hint* terms (:meth:`hint`: untrusted bases, the commitments a signature
    claims) with a fresh odd 64-bit multiplier that weights the rest of the
    equation, *order-q* terms (:meth:`add`) with exponents summed per base.
    :meth:`decide` takes the two products — the hinted one with short
    exponents, then the order-``q`` one — and one cofactor power, which
    projects away any small-order part of a hint: an equation that does not
    hold on the subgroup survives with probability ~2**-64.

    Every signature counted in names its exact verifier, which decides one
    that cannot join (:meth:`defer`) and, when the fold fails, every one
    that did (:meth:`join`): a hint can cost time, never a verdict.
    """

    __slots__ = ("params", "_hinted", "_exponents", "_joined", "_deferred")

    def __init__(self, params: DlogParams) -> None:
        self.params = params
        self._hinted: list[tuple[int, int]] = []
        self._exponents: dict[int, int] = {}
        self._joined: list[tuple[Callable[..., bool], tuple]] = []
        self._deferred: list[tuple[Callable[..., bool], tuple]] = []

    def hint(self, base: int) -> int:
        """Add ``base**l`` for a fresh odd multiplier ``l``, and return ``l``."""
        multiplier = secrets.randbits(BATCH_RANDOMIZER_BITS) | 1
        self._hinted.append((base, multiplier))
        return multiplier

    def add(self, base: int, exponent: int) -> None:
        """Add ``base**exponent`` for an order-``q`` ``base``."""
        self._exponents[base] = self._exponents.get(base, 0) + exponent

    def merge(self, other: Fold) -> None:
        """Add every term of ``other``."""
        self._hinted += other._hinted
        for base, exponent in other._exponents.items():
            self.add(base, exponent)

    def join(self, exact: Callable[..., bool], *args: object) -> None:
        """Count in a signature whose equation was added; ``exact(*args)`` is its verifier."""
        self._joined.append((exact, args))

    def defer(self, exact: Callable[..., bool], *args: object) -> None:
        """Count in a signature that ``exact(*args)`` alone decides."""
        self._deferred.append((exact, args))

    def decide(self) -> bool:
        """True iff every signature counted in verifies."""
        if self._hinted or self._exponents:
            p, q = self.params.p, self.params.q
            ratio = multi_exp(self._hinted, p)
            ratio = ratio * multi_exp(self._exponents.items(), p, order=q) % p
            failed = ratio != 1 and _power(ratio, self.params.cofactor, p) != 1
            if failed and not all(exact(*args) for exact, args in self._joined):
                return False
        return all(exact(*args) for exact, args in self._deferred)


def is_member(x: int, q: int, p: int, memo: bool = True) -> bool:
    """Memoized order-``q`` subgroup membership test in ``Z_p^*``.

    Protocol code re-checks the same handful of public keys on every
    message; each check is a full exponentiation.  Positive and negative
    results are both memoized (bounded LRU) — group parameters are
    immutable, so the answer never changes.  ``memo=False`` runs the same
    exact test without touching the memo: for one-shot values (a
    signature's fresh ciphertext halves) that would only evict the keys.
    The exponent is ``q`` itself, never reduced by an assumed order: for a
    non-member, ``x**(q % q)`` would lie.
    """
    if not 0 < x < p:
        return False
    key = (x, q, p)
    hit = _members.get(key) if memo else None
    if hit is not None:
        _members.move_to_end(key)
        return hit
    ok = _power(x, q, p) == 1
    if memo:
        _members[key] = ok
        while len(_members) > _MAX_MEMBERS:
            _members.popitem(last=False)
    return ok
