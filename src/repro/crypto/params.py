"""Discrete-logarithm parameter sets (Schnorr groups).

Every scheme in :mod:`repro.crypto` works in a prime-order-``q`` subgroup of
``Z_p^*`` generated by ``g``.  Three parameter sets are embedded:

* :data:`PARAMS_TEST_512` — 512-bit ``p`` / 160-bit ``q``.  Insecure, but an
  order of magnitude faster; used throughout the test suite.
* :data:`PARAMS_1024_160` — 1024-bit ``p`` / 160-bit ``q``, the size the
  paper benchmarks ("DSA 1024-bit", Table 2).  The default.
* :data:`PARAMS_2048_256` — a modern-sized set for headroom experiments.

The embedded constants were generated with :func:`generate_params` (standard
DSA-style generation: random prime ``q``, then ``p = q*k + 1`` prime, then
``g = h**((p-1)//q) mod p``) and are re-validated by the test suite with
:meth:`DlogParams.validate`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto import fastexp, primitives


@dataclass(frozen=True)
class DlogParams:
    """A Schnorr group: prime modulus ``p``, prime order ``q``, generator ``g``."""

    p: int
    q: int
    g: int
    name: str = "custom"

    @property
    def p_bits(self) -> int:
        """Bit length of the modulus ``p``."""
        return self.p.bit_length()

    @property
    def q_bits(self) -> int:
        """Bit length of the subgroup order ``q``."""
        return self.q.bit_length()

    @property
    def cofactor(self) -> int:
        """``(p - 1) // q`` — the index of the subgroup in ``Z_p^*``."""
        return (self.p - 1) // self.q

    def pow_g(self, exponent: int) -> int:
        """``g ** exponent mod p``, the exponent reduced by ``q`` (so it may be negative)."""
        return fastexp._power(self.g, exponent % self.q, self.p)

    def validate(self, rounds: int = 20) -> None:
        """Raise :class:`ValueError` unless this is a well-formed Schnorr group."""
        if not primitives.is_probable_prime(self.p, rounds):
            raise ValueError(f"{self.name}: p is not prime")
        if not primitives.is_probable_prime(self.q, rounds):
            raise ValueError(f"{self.name}: q is not prime")
        if (self.p - 1) % self.q != 0:
            raise ValueError(f"{self.name}: q does not divide p-1")
        if not (1 < self.g < self.p):
            raise ValueError(f"{self.name}: generator out of range")
        if pow(self.g, self.q, self.p) != 1:
            raise ValueError(f"{self.name}: generator does not have order q")

    def random_exponent(self) -> int:
        """A uniform secret exponent in ``[1, q)``."""
        return primitives.rand_range(1, self.q)

    def is_element(self, x: int, memo: bool = True) -> bool:
        """True iff ``x`` is a member of the order-``q`` subgroup.

        Memoized (see :func:`repro.crypto.fastexp.is_member`): protocol code
        re-checks the same broker/judge/identity keys on every message, and
        each check costs a full exponentiation.  Pass ``memo=False`` for
        per-signature values that are never asked about again.
        """
        return fastexp.is_member(x, self.q, self.p, memo=memo)

    def encode(self) -> bytes:
        """Stable byte encoding used when hashing the group into challenges."""
        return b"|".join(
            (
                primitives.int_to_bytes(self.p),
                primitives.int_to_bytes(self.q),
                primitives.int_to_bytes(self.g),
            )
        )


def generate_params(p_bits: int, q_bits: int, name: str = "generated") -> DlogParams:
    """Generate a fresh Schnorr group with the requested sizes.

    This is the routine that produced the embedded constants below.  It is
    exposed so downstream users can mint their own parameters, but for normal
    use the embedded, pre-validated sets are preferred (generation of a
    2048-bit group takes several seconds).
    """
    if q_bits >= p_bits:
        raise ValueError("q must be smaller than p")
    q = primitives.generate_prime(q_bits)
    while True:
        k = primitives.rand_bits(p_bits - q_bits)
        p = q * k + 1
        if p.bit_length() != p_bits:
            continue
        if primitives.is_probable_prime(p, rounds=10) and primitives.is_probable_prime(p, rounds=40):
            break
    while True:
        h = primitives.rand_range(2, p - 1)
        g = pow(h, (p - 1) // q, p)
        if g > 1:
            break
    return DlogParams(p=p, q=q, g=g, name=name)


PARAMS_TEST_512 = DlogParams(
    p=int(
        "ad85ae0f2aa82d152b8b7a13fa1f1dbd4a2aa8afcbd6c8a4914ef600ae73adea"
        "36871e087abee08354903943dc4840ee3b3798079f62c2ce90bb57c128818b93",
        16,
    ),
    q=int("c5b8bcabc2c492f72aa5c1351c69bbb7f3ab7347", 16),
    g=int(
        "08debdfc8d1b18640f0301cf2fbc5710b154d1eee9b7043930aee99cf6de3614"
        "4c29629d18e6191ada7f3fd58b694bf967adf2f2a6856c30f6b861e1c73a78ba",
        16,
    ),
    name="test-512/160",
)

PARAMS_1024_160 = DlogParams(
    p=int(
        "db27937dcf67e37f0aa4ff1f66fc3178b066f3634c57f256cf9de08acd362e39"
        "782630e5d687ceb31cb3579175f2bff4e92b61b894e613399c9f5dc7f1ed3f1e"
        "1c66c9bea6f3c982fafbdee4b6b0e06753af6041a775d8d2ac1eb1b50c1a385e"
        "bafd40dc4d0325b58c882abbebc2acc322679d1af036c52cd62e88e9b5805813",
        16,
    ),
    q=int("f241c1b173aed96a91b8a7db65347d4076472ffb", 16),
    g=int(
        "5dbb891d78d6ef432e7c910a3c0370c42fcb87a7ee7780f44bd800dd9b975286"
        "cb8ccac1d3c3da20dddcfa3705722421d9452d721018921d6623a02c5df3fc3c"
        "b714d8ecd4065bade3cd201bb3910c56a8d0e3f78047cab5c26e35deedba4df4"
        "630abd73fc9d10533876d79fa4709888dac5eb36042daf618c72b00be43ec36e",
        16,
    ),
    name="dsa-1024/160",
)

PARAMS_2048_256 = DlogParams(
    p=int(
        "910c0158cade4892c466cddba167eb0fa931d87f5b99f8a5f5310cfa19ba469d"
        "f1bb6ab507d3fa6c2157fb7320aa0804a69bc9bda47a309d1cd079e69805cd79"
        "224b17cf4cf70926c7b1930a4ac519a432e31464172c45470c2b138761a674f3"
        "bdf060ed3d67d4f21e6de36b78d519672d3cc1d1bb554e56d5b3e8e8fc8250a7"
        "fa119fcc3ed12d8ed153725247b148a342307ef047d7536c611c3f7f0d009c91"
        "b0b74bfde2e4d62b0619fde2042c21dab637d786ca5527922e8d7014b84713f5"
        "c4d285e4cfec6458beb3b62df1c51ce0b26026593e377c10f4d72ad8267e0209"
        "d33996c2aca42f2d36f8ec8faee10a4cab021895bd1244471e014465f5e4cc6b",
        16,
    ),
    q=int("9f6d0d66cb8cd4c8e57e3714638a51fb86c7617b3187ba66371b4ad88294670d", 16),
    g=int(
        "6dc69ba01e21c22f5f0715bb0dac3b740c2733e60afd5f24e9ae9d49c2bec0b0"
        "122fa9e0996f68670bc796f8646e2fac510ff8ce25ec78f68fb28b354ed49b09"
        "6ccf43482e645fa0c13fc7a1d25fd00f3306785705599e47d1781d45620b8fe8"
        "5e806ebf850775794b90430af3ed1a646a35417fb44f7e5df649a61bd60cdaca"
        "552dd189b3b82f92d1bcf85f8765797c87ed6a1262eaa80fb34ba0aeac3e02f1"
        "a80c2170efb18722183b7554566eaa5c4fca63a0066552288ba7ca815fc1112a"
        "dac43b052d81caf407d8115dec11a6d183f98a2eb11d47b5593de1c124cc8920"
        "a18aeb6f6bdf2db530d0b831359e6a22a93a08ba42bce7af5112e8b1f1981625",
        16,
    ),
    name="dsa-2048/256",
)


def default_params() -> DlogParams:
    """The parameter set matching the paper's evaluation (DSA 1024-bit)."""
    return PARAMS_1024_160
