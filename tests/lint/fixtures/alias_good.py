# wp-lint: module=repro.sim.fixture_alias_good
"""The sanctioned forms through the same aliases: nothing to report."""

import random as r
import secrets as s
from numpy.random import RandomState as RS


def sample(seed, xs):
    rng = r.Random(seed)  # a seeded instance, whatever the module is called
    shell = RS(0)  # seeded constructor
    token = s.token_bytes(8)  # key material is meant to be unpredictable
    return rng.random(), shell, token, sorted(set(xs))
