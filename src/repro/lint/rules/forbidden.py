"""The forbidden-call table: WP102 / WP107 / WP108 / WP109 / WP114's call families.

"This qualified callee, in this package scope, outside these exempt
packages" is one check, so it is one table.  A row names its callees by
what they *are* (``time.time``, ``numpy.random.default_rng``,
``repro.core.broker.Broker``), and :func:`forbidden_calls` compares them with
what each call's callee resolves to through the file's import bindings
(:meth:`repro.lint.resolve.ModuleSymbols.qualify`) — so ``import time as t;
t.time()``, ``from random import choice; choice(xs)`` and a function-level
``import`` are the same finding as the plain spelling.

WP107, WP108 and WP109 are nothing but their rows and live here; WP102 and
WP114 add their rows' findings to the checks that are not forbidden calls
(set iteration, the ``deadline=`` keyword) in their own modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.lint.asthelpers import guarded
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo
from repro.lint.registry import Rule, register

#: Offline tooling never touches wire payloads or replay-checked state.
TOOLING_PACKAGES = ("repro.analysis", "repro.cli", "repro.lint")

#: WP114 also leaves out ``repro.net``: the transport/RPC layer implements the
#: budget machinery, and its seeded-backoff helpers are the accounting form.
LIVENESS_EXEMPT = ("repro.net",) + TOOLING_PACKAGES


@dataclass(frozen=True)
class ForbiddenCall:
    """One row: these callees, under ``scope``, outside ``exempt``.

    ``names`` are qualified callees; ``"pkg.mod.*"`` is every attribute of
    ``pkg.mod`` that no other row names exactly.  An empty ``scope`` guards
    every module.  ``message`` (and ``import_message``) may use ``{fn}``, the
    callee's last component.  ``when`` narrows a row to the calls it holds
    for.  A row with an ``import_message`` reports ``from m import f`` where
    the name enters the file, and then not again at each bare ``f(...)``.
    """

    code: str
    names: frozenset[str]
    scope: tuple[str, ...]
    exempt: tuple[str, ...]
    message: str
    when: Callable[[ast.Call], bool] | None = None
    import_message: str | None = None


def _members(owner: str, *names: str) -> frozenset[str]:
    return frozenset(f"{owner}.{name}" for name in names)


def _unseeded(node: ast.Call) -> bool:
    """True when the call passes no seed (no args, or an explicit None)."""
    if not node.args and not node.keywords:
        return True
    if node.args:
        first = node.args[0]
    else:
        seed_kw = next((kw for kw in node.keywords if kw.arg == "seed"), None)
        if seed_kw is None:
            return True
        first = seed_kw.value
    return isinstance(first, ast.Constant) and first.value is None


_WALL_CLOCK = "() in protocol code — all timing flows from the virtual Clock"
_RAW_SYNC = (
    " outside repro.store — durability flows through the journal "
    "(DurableStore.append/append_many or a GroupCommitter); a raw sync is "
    "invisible to group-commit reply gating"
)

FORBIDDEN_CALLS: tuple[ForbiddenCall, ...] = (
    # WP102 — functions on the *module-level* random generator (global hidden
    # state); ``random.Random(seed)`` instances and ``secrets`` are not named.
    ForbiddenCall(
        "WP102",
        _members(
            "random",
            "random", "randint", "randrange", "randbytes", "choice", "choices",
            "shuffle", "sample", "uniform", "triangular", "betavariate",
            "expovariate", "gammavariate", "gauss", "lognormvariate",
            "normalvariate", "vonmisesvariate", "paretovariate",
            "weibullvariate", "getrandbits", "seed",
        ),
        ("repro",),
        TOOLING_PACKAGES,
        "module-level random.{fn}() uses hidden global RNG state — draw from "
        "a seeded random.Random instance",
    ),
    # WP102 — wall-clock reads.
    ForbiddenCall(
        "WP102",
        _members(
            "time",
            "time", "time_ns", "monotonic", "monotonic_ns",
            "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
        ),
        ("repro",),
        TOOLING_PACKAGES,
        "wall-clock time.{fn}" + _WALL_CLOCK,
    ),
    ForbiddenCall(
        "WP102",
        _members("datetime.datetime", "now", "utcnow", "today"),
        ("repro",),
        TOOLING_PACKAGES,
        "wall-clock datetime.{fn}" + _WALL_CLOCK,
    ),
    ForbiddenCall(
        "WP102",
        _members("datetime.date", "now", "utcnow", "today"),
        ("repro",),
        TOOLING_PACKAGES,
        "wall-clock date.{fn}" + _WALL_CLOCK,
    ),
    # WP107 — constructors that draw an OS-entropy seed when called without
    # one; a seeded call matches this row and is thereby not the next one's.
    ForbiddenCall(
        "WP107",
        _members("numpy.random", "default_rng", "RandomState"),
        ("repro.sim",),
        (),
        "{fn}() without a seed draws OS entropy — pass the config's seed so "
        "runs replay bit-identically",
        when=_unseeded,
    ),
    # WP107 — any other attribute call on the numpy.random namespace hits the
    # hidden module-level generator (including ``seed`` itself, which mutates
    # state shared across every consumer in the process).
    ForbiddenCall(
        "WP107",
        frozenset({"numpy.random.*"}),
        ("repro.sim",),
        (),
        "numpy.random.{fn}() uses the hidden global stream — draw from a "
        "generator seeded with the config's seed",
    ),
    # WP108 — only the journal layer itself may issue raw fsync/fdatasync.
    ForbiddenCall(
        "WP108",
        _members("os", "fsync", "fdatasync"),
        (),
        ("repro.store",),
        "os.{fn}()" + _RAW_SYNC,
        import_message="from os import {fn}" + _RAW_SYNC,
    ),
    # WP109 — the class, its two package re-exports, and the bare name where
    # no import binds it (a class handed in as a parameter).  The factory,
    # journal-replay recovery, tests and the defining module may construct.
    ForbiddenCall(
        "WP109",
        frozenset(
            {"repro.core.broker.Broker", "repro.core.Broker", "repro.Broker", "Broker"}
        ),
        (),
        ("repro.core.network", "repro.store.recovery", "repro.core.broker", "tests"),
        "direct Broker(...) construction outside the repro.core.network "
        "factories / repro.store.recovery — build a WhoPayNetwork (optionally "
        "with a BrokerTopology) or recover from a journal instead",
    ),
    # WP114 — real-time sleeps.
    ForbiddenCall(
        "WP114",
        frozenset({"time.sleep"}),
        ("repro",),
        LIVENESS_EXEMPT,
        "time.sleep() in protocol code — waiting flows from the virtual "
        "Clock; backoff is accounted, never slept",
        import_message=(
            "importing sleep from time in protocol code — waiting flows from "
            "the virtual Clock"
        ),
    ),
)


def _by_name(rows: Iterable[ForbiddenCall]) -> dict[str, list[ForbiddenCall]]:
    index: dict[str, list[ForbiddenCall]] = {}
    for row in rows:
        for name in row.names:
            index.setdefault(name, []).append(row)
    return index


_ROWS_BY_NAME = _by_name(FORBIDDEN_CALLS)


def _rows_for(name: str, module: str) -> list[ForbiddenCall]:
    """The rows naming ``name`` (exactly, else by ``owner.*``) that guard ``module``."""
    owner = name.rpartition(".")[0]
    rows = _ROWS_BY_NAME.get(name) or _ROWS_BY_NAME.get(f"{owner}.*", ())
    return [row for row in rows if guarded(module, row.scope, row.exempt)]


def _scan(module: ModuleInfo) -> Iterable[Diagnostic]:
    """One walk: every call, and every from-imported name, against the table."""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = module.symbols.qualify(node.func)
            for row in _rows_for(name, module.module) if name else ():
                # ``f(...)`` after ``from m import f`` was reported at the import.
                at_import = row.import_message and isinstance(node.func, ast.Name)
                if not at_import and (row.when is None or row.when(node)):
                    fn = name.rpartition(".")[2]
                    yield module.diagnostic(node, row.code, row.message.format(fn=fn))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                for row in _rows_for(f"{node.module}.{alias.name}", module.module):
                    if row.import_message:
                        message = row.import_message.format(fn=alias.name)
                        yield module.diagnostic(node, row.code, message)


def forbidden_calls(module: ModuleInfo, code: str) -> list[Diagnostic]:
    """``code``'s findings among the table's in ``module`` (scanned once, kept)."""
    found = getattr(module, "_forbidden_calls", None)
    if found is None:
        found = list(_scan(module))
        module._forbidden_calls = found  # type: ignore[attr-defined]
    return [diag for diag in found if diag.code == code]


class _TableRule(Rule):
    """A rule that is exactly its rows of :data:`FORBIDDEN_CALLS`."""

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        return forbidden_calls(module, self.code)


@register
class SimSeedingDiscipline(_TableRule):
    """WP107 — simulator randomness must be explicitly seeded.

    The simulation engines promise bit-identical replays per ``SimConfig.seed``
    (`repro.sim.engine` stakes its equivalence gate on it), and the sweep
    runner promises parallel rows identical to sequential ones.  numpy's
    random API offers two ways to silently break that promise inside
    ``repro.sim``:

    * the *module-level* generator — ``np.random.normal(...)``,
      ``np.random.seed(...)`` and friends share one hidden global stream that
      any import can perturb;
    * *unseeded constructors* — ``default_rng()`` / ``RandomState()`` with no
      argument (or an explicit ``None``) pull entropy from the OS, so no two
      runs agree.

    Both are reported.  The sanctioned forms are seeded constructors —
    ``default_rng(config.seed)``, ``RandomState(0)`` (e.g. as a state-transplant
    shell for an MT19937 stream) — and stdlib ``random.Random(seed)``
    instances; WP102 already polices the stdlib global generator.

    Scope: ``repro.sim`` only.  Offline tooling that merely *analyzes* sim
    output (``repro.analysis``) may bootstrap-resample however it likes.
    """

    code = "WP107"
    name = "sim-seeding-discipline"
    rationale = (
        "The simulator's per-seed reproducibility gate dies the moment "
        "repro.sim touches numpy's global random stream or an unseeded "
        "generator."
    )


@register
class FsyncDiscipline(_TableRule):
    """WP108 — raw ``os.fsync`` / ``os.fdatasync`` only inside ``repro.store``."""

    code = "WP108"
    name = "fsync-through-journal"
    rationale = (
        "A raw os.fsync outside repro.store bypasses the journal's "
        "group-commit accounting: which mutations a given fsync covers — "
        "and therefore when a reply may be released — is decided by the "
        "store layer, and a side-channel sync silently breaks that ledger."
    )


@register
class BrokerConstructionDiscipline(_TableRule):
    """WP109 — brokers are built by factories, not ad hoc.

    A :class:`~repro.core.broker.Broker` constructed directly is a federation
    hazard: PR 7 made broker identity a *topology* concern.  The network
    factory (:mod:`repro.core.network`) is what threads the shared signing
    key, the shard map, the per-shard durable store, and the detection service
    through every shard consistently; crash recovery
    (:mod:`repro.store.recovery`) is the one other legitimate birthplace,
    rebuilding an existing identity from its journal.  A ``Broker(...)`` call
    anywhere else produces a mint that signs coins nobody else trusts, or a
    shard the router does not know about — bugs that surface far from the
    construction site.

    Tests may construct brokers directly (unit tests of the broker itself
    must), so the rule exempts ``tests.*`` modules along with the factory
    packages; the defining module may reference its own class freely.
    """

    code = "WP109"
    name = "broker-factory-discipline"
    rationale = (
        "Direct Broker construction bypasses the topology factory that "
        "threads the federation's shared signing key, shard map, and "
        "durable store; rogue instances mint coins the rest of the "
        "federation rejects."
    )
