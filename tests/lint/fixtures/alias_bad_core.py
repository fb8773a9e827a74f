# wp-lint: module=repro.core.fixture_alias_bad
"""Forbidden calls written through an alias: one per line, each still reported."""

from time import time as now, perf_counter; now()  # line 4: WP102 (time.time)
perf_counter()  # line 5: WP102 (time.perf_counter)
import time as t; t.time()  # line 6: WP102 (time.time)
t.sleep(1)  # line 7: WP114 (time.sleep)
import random as r; r.random()  # line 8: WP102 (random.random)
from random import choice; choice([1, 2])  # line 9: WP102 (random.choice)
import os as o; o.fsync(0)  # line 10: WP108 (os.fsync)
from os import fsync as f; f(0)  # line 11: WP108 (reported where the name is imported)
from datetime import datetime as dt; dt.now()  # line 12: WP102 (datetime.now)
from repro.core.broker import Broker as B; B(None)  # line 13: WP109
from repro.core import broker as bmod; bmod.Broker(None)  # line 14: WP109


def late_binding():
    import time as clock  # the import is inside the function

    return clock.monotonic()  # line 20: WP102 (time.monotonic)
