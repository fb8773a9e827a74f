"""Fixed-base and multi-exponentiation acceleration (the crypto hot path).

Every scheme in :mod:`repro.crypto` bottoms out in modular exponentiation,
and almost all of those exponentiations share a handful of *long-lived*
bases: the group generator ``g``, the broker's and judge's public keys, and
the roster membership keys.  Exponentiating a known base is embarrassingly
precomputable — this module provides the three standard accelerations from
the e-cash / signature literature and the machinery to apply them
transparently:

* :class:`FixedBaseTable` — windowed fixed-base precomputation
  (Brickell–Gordon–McCurley–Wilson).  A one-time table of
  ``base**(j * 2**(w*i))`` turns every later exponentiation into
  ``ceil(bits/w)`` modular multiplications and **zero** squarings — measured
  4–6× faster than CPython's native ``pow`` at our parameter sizes.  The
  window is the table's one knob, and there are three settings:
  :data:`CACHED_WINDOW` (5: 32 multiplications per 160-bit exponent, 1024
  entries) for every cached key, :data:`EPHEMERAL_WINDOW` (4) for tables
  that live for one signature, and :data:`SYSTEM_WINDOW` (8: 20
  multiplications, 5120 entries) for the two bases the whole system
  shares — the generator and the judge's opening key.
* :func:`multi_exp` — simultaneous multi-exponentiation.  Cached bases are
  resolved through their tables; the remaining ad-hoc bases share one
  interleaved square-and-multiply loop (Straus/Shamir), so a product of
  ``k`` exponentiations costs one set of squarings instead of ``k``.
* A **table cache** with two ways in (bounded, least recently used out
  first).  Owners of long-lived keys *register* them by name with
  :func:`precompute`; any other base seen :data:`PROMOTE_AFTER` times for
  the same modulus is *promoted*: it gets a table built and cached, so
  long-lived keys accelerate themselves and one-shot bases never pay the
  table cost.  Verifiers that only ever see a key as an integer on the wire
  reach the same cache as code holding the rich objects.  A full cache
  evicts its promoted tables first, whoever arrives: a registered table
  gives way only to another registration that finds no promoted table
  left, and a promotion that finds every slot registered is refused
  (native ``pow`` instead) — a roster larger than the cache keeps the
  tables it has rather than evicting and rebuilding them signature after
  signature.  A promoted table leaves when its base dies (:func:`forget`:
  a coin's key, at its deposit); the bound is for the bases nobody
  reports dead.

The module also memoizes subgroup-membership checks (``x**q == 1 mod p``),
which cost a full exponentiation and are repeated endlessly for the same
handful of keys by protocol code; :class:`Fold` is the one batch test.

Thread-safety: the caches are process-local plain dicts guarded by the GIL;
a racing duplicate build or eviction costs a rebuild, never a wrong power
(a table is immutable once built).  A forked child (the parallel sweep
runner's workers) inherits, then grows, its own copy; nothing is shipped
between processes.
"""

from __future__ import annotations

import secrets
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from repro.crypto.params import DlogParams

__all__ = [
    "FixedBaseTable",
    "Fold",
    "fixed_base",
    "precompute",
    "forget",
    "mod_pow",
    "multi_exp",
    "is_member",
    "clear_caches",
]

#: Build-and-cache a table for a base after this many uses with the same
#: modulus.  2 means "promote on the second sighting": the table build costs
#: roughly five native exponentiations, so a base used a handful of times
#: already breaks even, and long-lived keys win 4-6x forever after.
PROMOTE_AFTER = 2

#: Window width for cached (long-lived) tables.  Bigger windows trade build
#: time for per-exponentiation speed; 5 is the measured sweet spot when the
#: table lives for many uses.
CACHED_WINDOW = 5

#: Window width for ephemeral tables built for one signature's worth of
#: uses (e.g. the ciphertext bases inside a group-signature roster loop).
EPHEMERAL_WINDOW = 4

#: Window width for the two system-wide bases: the generator and the judge's
#: opening key, which every peer, the broker and the judge exponentiate for
#: the life of the system.  One byte per digit, so a 160-bit exponent is 20
#: multiplications instead of 32 — bought with 5x the build and 5x the
#: memory of a :data:`CACHED_WINDOW` table (20 x 256 entries: 0.5 MB at
#: 512-bit, 0.9 MB at 1024-bit), which is why their owners ask for it by
#: name and nobody else gets it.
SYSTEM_WINDOW = 8

#: Straus interleaving window for ad-hoc simultaneous exponentiation.
_STRAUS_WINDOW = 4

#: Ad-hoc base count at which the bucket (Pippenger) method overtakes Straus.
#: Straus pays a per-base window table (``2**w - 1`` multiplications) that the
#: bucket method does not; past a dozen-odd bases the buckets win and keep
#: winning — the batched group-signature test routinely brings hundreds.
_PIPPENGER_MIN = 16

#: Bit width of the random multipliers in a :class:`Fold`: an equation that
#: does not hold survives the combination with probability ~2**-64.
BATCH_RANDOMIZER_BITS = 64

_MAX_TABLES = 256  # cached FixedBaseTable entries (LRU)
_MAX_COUNTS = 8192  # promotion counters before mass eviction
_MAX_MEMBERS = 8192  # memoized positive membership checks


class FixedBaseTable:
    """Windowed precomputation for one ``(base, modulus)`` pair.

    The table stores ``base**(j * 2**(window*i)) mod modulus`` for every
    window digit ``j`` and every digit position ``i`` up to ``max_bits``.
    :meth:`pow` then assembles ``base**e`` as a product of one table entry
    per digit of ``e`` — no squarings at all.  ``ceil(max_bits / window)``
    rows of ``2**window`` entries: a wider window buys fewer
    multiplications per exponentiation with a longer build and more memory.
    At ``window == 8`` a row is one byte of the exponent
    (``rows[i][d] == base**(d * 256**i)``).

    ``order``, when given, is the multiplicative order of ``base`` (our
    bases are order-``q`` subgroup elements); exponents are reduced modulo
    it, which also makes the inversion-free ``base**-c == base**(order-c)``
    rewriting at call sites safe.
    """

    __slots__ = ("base", "modulus", "order", "window", "max_bits", "_rows")

    def __init__(
        self,
        base: int,
        modulus: int,
        max_bits: int,
        window: int = CACHED_WINDOW,
        order: int | None = None,
    ) -> None:
        if not (0 < base < modulus):
            raise ValueError("base must be a reduced nonzero residue")
        if max_bits < 1 or window < 1:
            raise ValueError("max_bits and window must be positive")
        self.base = base
        self.modulus = modulus
        self.order = order
        self.window = window
        self.max_bits = max_bits
        n_digits = (max_bits + window - 1) // window
        span = 1 << window
        rows: list[list[int]] = []
        b = base
        for _ in range(n_digits):
            row = [1] * span
            acc = 1
            for j in range(1, span):
                acc = (acc * b) % modulus
                row[j] = acc
            rows.append(row)
            # Next row's base is base**(2**window) relative to this row.
            b = (row[span - 1] * b) % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` via table lookups only."""
        if self.order is not None:
            exponent %= self.order
        if exponent < 0:
            raise ValueError("negative exponent needs a known order")
        if exponent.bit_length() > self.max_bits:
            return pow(self.base, exponent, self.modulus)  # beyond the table
        m = self.modulus
        rows = self._rows
        result = 1
        w = self.window
        mask = (1 << w) - 1
        i = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = (result * rows[i][digit]) % m
            exponent >>= w
            i += 1
        return result


# -- global caches ------------------------------------------------------------

_tables: OrderedDict[tuple[int, int], FixedBaseTable] = OrderedDict()  # LRU, oldest first
#: Keys of ``_tables`` that somebody asked for by name (:func:`precompute`),
#: as opposed to promoted by use.  Always a subset of ``_tables``: promotion
#: never evicts these, and promoted tables go first.
_registered: set[tuple[int, int]] = set()
_use_counts: dict[tuple[int, int], int] = {}
_members: OrderedDict[tuple[int, int, int], bool] = OrderedDict()


def clear_caches() -> None:
    """Drop every cached table, counter, and membership memo (test hook)."""
    _tables.clear()
    _registered.clear()
    _use_counts.clear()
    _members.clear()


def _lookup(base: int, modulus: int) -> FixedBaseTable | None:
    table = _tables.get((base, modulus))
    if table is not None:
        _tables.move_to_end((base, modulus))
    return table


def _evict(for_registered: bool) -> bool:
    """Drop one table: the least recently used *promoted* one, whoever asks.

    When every slot is held by a registered table, only another
    registration may take one (the least recently used).  A promotion is
    refused: it would swap a table its owner asked for against one that is
    itself evicted before it pays for its build (the roster-past-the-cache
    cliff), so the caller falls through to native ``pow`` instead.
    """
    victim = next((key for key in _tables if key not in _registered), None)
    if victim is None:
        if not for_registered:
            return False
        victim = next(iter(_tables))
    del _tables[victim]
    _registered.discard(victim)
    return True


def _store(key: tuple[int, int], table: FixedBaseTable, registered: bool) -> None:
    """Cache ``table`` as the newest entry, evicting past the bound."""
    _tables[key] = table
    _tables.move_to_end(key)
    if registered:
        _registered.add(key)
    _use_counts.pop(key, None)
    while len(_tables) > _MAX_TABLES:
        _evict(for_registered=True)


def precompute(
    base: int,
    modulus: int,
    max_bits: int,
    order: int | None = None,
    window: int = CACHED_WINDOW,
) -> FixedBaseTable:
    """Build (or fetch) the cached table for ``(base, modulus)``.

    Call this eagerly for keys known to be long-lived — the generator, the
    judge's opening key, roster membership keys — to skip the promotion
    warm-up entirely.  A table registered here is only ever evicted by
    another registered table, never by a promoted one.  ``window`` and
    ``max_bits`` are floors: a cached table that is narrower or covers
    fewer bits is rebuilt at the larger of each, never narrowed or
    shortened — so the owners of the two system-wide bases pass
    :data:`SYSTEM_WINDOW` and everybody else's request for the same base
    finds their table.
    """
    key = (base, modulus)
    table = _lookup(base, modulus)
    if table is not None:
        if table.max_bits >= max_bits and table.window >= window:
            _registered.add(key)  # a promoted table somebody now names is theirs
            return table
        max_bits, window = max(max_bits, table.max_bits), max(window, table.window)
    table = FixedBaseTable(base, modulus, max_bits, window=window, order=order)
    _store(key, table, registered=True)
    return table


def fixed_base(base: int, modulus: int) -> FixedBaseTable | None:
    """The cached table for ``(base, modulus)``, if one exists."""
    return _lookup(base, modulus)


def forget(base: int, modulus: int) -> None:
    """Drop what promotion holds for a base whose owner says it is dead.

    A deposited coin's key is never exponentiated again, and its table
    would otherwise sit in the cache until :data:`_MAX_TABLES` pushed it
    out.  A registered table stays: its owner asked for it by name.
    """
    key = (base, modulus)
    _use_counts.pop(key, None)
    if key not in _registered:
        _tables.pop(key, None)


def _note_use(base: int, modulus: int, max_bits: int, order: int | None) -> FixedBaseTable | None:
    """Count a cache miss; promote the base once it proves to be recurrent."""
    key = (base, modulus)
    count = _use_counts.get(key, 0) + 1
    if count >= PROMOTE_AFTER and (len(_tables) < _MAX_TABLES or _evict(for_registered=False)):
        table = FixedBaseTable(base, modulus, max_bits, window=CACHED_WINDOW, order=order)
        _store(key, table, registered=False)
        return table
    if len(_use_counts) >= _MAX_COUNTS:
        _use_counts.clear()  # cheap mass eviction; counters are advisory
    _use_counts[key] = count
    return None


def mod_pow(base: int, exponent: int, modulus: int, order: int | None = None) -> int:
    """Drop-in ``pow(base, exponent, modulus)`` with transparent acceleration.

    Uses the base's fixed table when one is cached, promotes recurrent
    bases, and otherwise defers to native ``pow``.  ``order`` is the base's
    multiplicative order when known (enables exponent reduction and sizes
    the promotion table).
    """
    if modulus <= 1 or exponent < 0:
        return pow(base, exponent, modulus)
    base %= modulus
    if base in (0, 1):
        return base if exponent else 1 % modulus
    if order is not None:
        exponent %= order
    max_bits = (order or modulus).bit_length()
    table = _lookup(base, modulus)
    if table is None and exponent.bit_length() <= max_bits:
        table = _note_use(base, modulus, max_bits, order)
    if table is not None:
        return table.pow(exponent)
    return pow(base, exponent, modulus)


def _straus(pairs: list[tuple[int, int]], modulus: int) -> int:
    """Interleaved (Straus/Shamir) product of ``base**exp`` for ad-hoc bases.

    One shared squaring chain for all bases; per-base windowed digit tables
    built on the fly.  Worth it from two bases up.
    """
    w = _STRAUS_WINDOW
    span = 1 << w
    tables: list[list[int]] = []
    for base, _ in pairs:
        row = [1] * span
        acc = 1
        for j in range(1, span):
            acc = (acc * base) % modulus
            row[j] = acc
        tables.append(row)
    n_digits = (max(e.bit_length() for _, e in pairs) + w - 1) // w
    mask = span - 1
    result = 1
    for i in range(n_digits - 1, -1, -1):
        if result != 1:
            for _ in range(w):
                result = (result * result) % modulus
        shift = w * i
        for (row, (_, exponent)) in zip(tables, pairs):
            digit = (exponent >> shift) & mask
            if digit:
                result = (result * row[digit]) % modulus
    return result


def _bucket_window(n_bases: int, max_bits: int) -> int:
    """Bucket width minimizing the estimated multiplication count."""
    best_c = 1
    best_cost: int | None = None
    for c in range(1, 17):
        windows = (max_bits + c - 1) // c
        cost = n_bases * windows + windows * 2 * (1 << c) + max_bits
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _pippenger(pairs: list[tuple[int, int]], modulus: int) -> int:
    """Bucket-method product of ``base**exp`` for *many* ad-hoc bases.

    Per window, each base is multiplied into the bucket of its exponent
    digit (one multiplication per base per window, no per-base tables), and
    the buckets collapse with the running-sum trick (two multiplications
    per occupied digit level).  For the hundreds of 64-bit-exponent bases a
    batched signature check produces, this costs a fraction of Straus.
    """
    max_bits = max(e.bit_length() for _, e in pairs)
    c = _bucket_window(len(pairs), max_bits)
    mask = (1 << c) - 1
    result = 1
    for i in range((max_bits + c - 1) // c - 1, -1, -1):
        if result != 1:
            for _ in range(c):
                result = (result * result) % modulus
        shift = c * i
        buckets: dict[int, int] = {}
        for base, exponent in pairs:
            digit = (exponent >> shift) & mask
            if digit:
                held = buckets.get(digit)
                buckets[digit] = base if held is None else (held * base) % modulus
        if buckets:
            acc = 1
            running = 1
            for digit in range(max(buckets), 0, -1):
                held = buckets.get(digit)
                if held is not None:
                    acc = (acc * held) % modulus
                running = (running * acc) % modulus
            result = (result * running) % modulus
    return result


def multi_exp(
    pairs,
    modulus: int,
    order: int | None = None,
    tables: dict[int, FixedBaseTable] | None = None,
    promote: bool = True,
) -> int:
    """``prod(base**exp) mod modulus`` for a sequence of ``(base, exp)``.

    The workhorse behind ``dsa_verify``'s ``g**u1 * y**u2`` and the
    group-signature clause equations.  Each base is resolved in order of
    preference: caller-supplied ephemeral ``tables`` (keyed by base), the
    global fixed-base cache, then one shared loop for whatever is left —
    Straus interleaving for a few bases, the bucket method
    (:func:`_pippenger`) once there are :data:`_PIPPENGER_MIN` or more (a
    single leftover base falls back to native ``pow``).

    ``order`` (the common multiplicative order of the bases, when known)
    reduces every exponent first — this is what lets callers write inverses
    as ``base**(order - c)`` and stay inversion-free.  ``promote=False``
    skips use-counting for uncached bases: batch verifiers pass throwaway
    per-signature bases that would only churn the promotion counters.
    """
    result = 1
    adhoc: list[tuple[int, int]] = []
    max_bits = (order or modulus).bit_length()
    for base, exponent in pairs:
        base %= modulus
        if order is not None:
            exponent %= order
        if exponent == 0 or base == 1:
            continue
        if base == 0:
            return 0
        table = tables.get(base) if tables else None
        if table is None:
            table = _lookup(base, modulus)
            if table is None and promote and exponent.bit_length() <= max_bits:
                table = _note_use(base, modulus, max_bits, order)
        if table is not None:
            result = (result * table.pow(exponent)) % modulus
        else:
            adhoc.append((base, exponent))
    if len(adhoc) == 1:
        base, exponent = adhoc[0]
        result = (result * pow(base, exponent, modulus)) % modulus
    elif len(adhoc) >= _PIPPENGER_MIN:
        result = (result * _pippenger(adhoc, modulus)) % modulus
    elif adhoc:
        result = (result * _straus(adhoc, modulus)) % modulus
    return result


class Fold:
    """One randomized small-exponent test over the equations of many signatures.

    Bellare–Garay–Rabin (1998): each scheme adds its equations as
    ``prod(base**exponent) == 1`` on the order-``q`` subgroup of ``params``:
    *hint* terms (:meth:`hint`: untrusted bases, the commitments a signature
    claims) with a fresh odd 64-bit multiplier that weights the rest of the
    equation, *order-q* terms (:meth:`add`) with exponents summed per base.
    :meth:`decide` takes the two products — the short hinted one, then the
    order-``q`` one through the cached tables — and one cofactor power,
    which projects away any small-order part of a hint: an equation that
    does not hold on the subgroup survives with probability ~2**-64.

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
            ratio = multi_exp(self._hinted, p, promote=False)
            ratio = ratio * multi_exp(self._exponents.items(), p, order=q, promote=False) % p
            failed = pow(ratio, self.params.cofactor, p) != 1
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
    """
    if not 0 < x < p:
        return False
    key = (x, q, p)
    hit = _members.get(key) if memo else None
    if hit is not None:
        _members.move_to_end(key)
        return hit
    # No promotion counting here: the memo below already removes repeats.
    # A cached table may only be used if it does not reduce exponents by an
    # *assumed* order q — for a non-member, x**(q % q) would lie.
    table = _lookup(x, p)
    if table is not None and table.order is None:
        ok = table.pow(q) == 1
    else:
        ok = pow(x, q, p) == 1
    if memo:
        _members[key] = ok
        while len(_members) > _MAX_MEMBERS:
            _members.popitem(last=False)
    return ok
