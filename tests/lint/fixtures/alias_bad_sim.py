# wp-lint: module=repro.sim.fixture_alias_bad
"""numpy's global stream reached through an alias of the namespace itself."""

import numpy.random as nr; nr.random()  # line 4: WP107 (numpy.random.random)
from numpy import random as rr; rr.random()  # line 5: WP107 (numpy.random.random)
