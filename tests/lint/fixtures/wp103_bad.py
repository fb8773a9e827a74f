# wp-lint: module=repro.core.fixture_wp103_bad
"""WP103 bad fixture: raw modular pow, variable-time secret comparison."""

import hashlib


def verify_commitment(g, x, p, commitment):
    return pow(g, x, p) == commitment  # line 8: WP103 (raw 3-arg pow)


def check_nonce(nonce, expected):
    return nonce == expected  # line 12: WP103 (secret ==)


def check_mac(payload, key, claimed_mac):
    computed = hashlib.sha256(key + payload).digest()
    return claimed_mac != computed  # line 17: WP103 (secret !=)


def check_token(stored_hash, token):
    return stored_hash == hashlib.sha256(token).digest()  # line 21: WP103 (digest ==)
