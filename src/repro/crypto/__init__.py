"""Cryptographic substrate for the WhoPay reproduction.

Every scheme in this package is implemented from scratch on top of the
Python standard library (``hashlib``, ``secrets``, ``hmac``); modular
exponentiation runs in the libcrypto bignum that ``hashlib`` already loads,
through ``ctypes`` (:mod:`repro.crypto.fastexp`).  No third-party
cryptography package is used.  The paper (Section 6.2, Table 2) assumes DSA
1024-bit signatures and an "efficient group signature scheme" (Section 3.2);
both are provided here, along with the auxiliary primitives the extensions
need (ElGamal for the judge's opening key, Shamir secret sharing for
threshold judges, and PayWord-style SHA-256 hash chains).

The implementations are honest, working algorithms — signatures really
verify, group signatures really hide and really open — but this is research
code: it has not been audited, makes no side-channel guarantees, and must not
be used to protect real value.
"""

from repro.crypto import fastexp
from repro.crypto.dsa import (
    DsaKeyPair,
    DsaSignature,
    dsa_batch_verify,
    dsa_digest,
    dsa_generate,
    dsa_sign,
    dsa_verify,
)
from repro.crypto.elgamal import ElGamalCiphertext, ElGamalKeyPair, elgamal_decrypt, elgamal_encrypt, elgamal_generate
from repro.crypto.group_signature import (
    GroupManager,
    GroupMemberKey,
    GroupPublicKey,
    GroupSignature,
    group_sign,
    group_verify,
)
from repro.crypto.hashchain import HashChain, verify_chain_link
from repro.crypto.keys import KeyPair, PublicKey, fingerprint
from repro.crypto.params import DlogParams, PARAMS_1024_160, PARAMS_2048_256, PARAMS_TEST_512, default_params
from repro.crypto.schnorr import SchnorrProof, schnorr_batch_verify, schnorr_prove, schnorr_verify
from repro.crypto.shamir import combine_shares, split_secret

__all__ = [
    "DlogParams",
    "PARAMS_1024_160",
    "PARAMS_2048_256",
    "PARAMS_TEST_512",
    "default_params",
    "fastexp",
    "DsaKeyPair",
    "DsaSignature",
    "dsa_batch_verify",
    "dsa_digest",
    "dsa_generate",
    "dsa_sign",
    "dsa_verify",
    "ElGamalKeyPair",
    "ElGamalCiphertext",
    "elgamal_generate",
    "elgamal_encrypt",
    "elgamal_decrypt",
    "GroupManager",
    "GroupMemberKey",
    "GroupPublicKey",
    "GroupSignature",
    "group_sign",
    "group_verify",
    "HashChain",
    "verify_chain_link",
    "KeyPair",
    "PublicKey",
    "fingerprint",
    "SchnorrProof",
    "schnorr_batch_verify",
    "schnorr_prove",
    "schnorr_verify",
    "split_secret",
    "combine_shares",
]
