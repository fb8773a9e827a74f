# wp-lint: module=repro.core.fixture_wp103_good
"""WP103 good fixture: fastexp routing, constant-time comparison."""

import hashlib
import hmac

from repro.crypto import fastexp


def verify_commitment(g, x, p, commitment):
    return fastexp.mod_pow(g, x, p) == commitment


def check_nonce(nonce, expected):
    return hmac.compare_digest(nonce, expected)


def check_mac(payload, key, claimed_mac):
    computed = hashlib.sha256(key + payload).digest()
    return hmac.compare_digest(claimed_mac, computed)


def wire_type_check(type_byte):
    # Comparing against a literal wire-format byte is public, not secret.
    return type_byte == b"n"


def wire_tag_literal(wire_tag):
    # Secret-named value against a *constant* is exempt by design.
    return wire_tag == b"t"
