"""WP112 / WP113 — happens-before discipline in protocol handlers.

WP112 (journal-before-reply): the durability contract from the WAL and
group-commit work — any durable-state mutation a handler or public method
performs must be covered by a journal write (``self._wal*`` /
``self._stage`` / ``DurableStore.append`` / ``GroupCommitter.stage``)
before control returns a reply.  A mutation still pending at a ``return``
means a crash after the reply escapes loses acknowledged state; a journal
statement made unreachable by an earlier ``return`` is the same bug in
dead-code form.

WP113 (verify-before-trust): once a handler touches untrusted input — a
raw read of its payload parameter or an envelope decode — no durable-state
mutation or journal write may execute until a signature/validation call
dominates the path.  This is what keeps a forged cross-shard prepare or an
unsigned holder operation from being applied.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.dataflow.ordering import (
    ObligationAnalysis,
    OrderingConfig,
    TrustAnalysis,
    TrustConfig,
)
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import Program
from repro.lint.registry import Rule, register
from repro.lint.rules.durability import DURABLE_FIELDS

_SCOPE = ("repro.core.peer", "repro.core.broker", "repro.core.anonymous_owner")

#: peer-side durable containers join the broker's WP106 set
_ORDERING_DURABLE = frozenset(DURABLE_FIELDS) | {"wallet", "owned", "relinquishments"}

#: attribute writes on non-self receivers that mutate journaled objects
_DURABLE_ATTRS = frozenset({"binding", "coin", "dirty", "seq_floor"})

_JOURNAL_METHODS = frozenset(
    {"_wal", "_wal_held", "_wal_owned", "_wal_del", "_stage", "_commit_local"}
)

#: the journal primitives themselves define the discipline; analyzing their
#: bodies against it would be circular
_PRIMITIVES = _JOURNAL_METHODS

ORDERING_CONFIG = OrderingConfig(
    scope_modules=_SCOPE,
    durable_fields=_ORDERING_DURABLE,
    durable_attrs=_DURABLE_ATTRS,
    journal_methods=_JOURNAL_METHODS,
    exempt_functions=_PRIMITIVES,
)

TRUST_CONFIG = TrustConfig(
    scope_modules=_SCOPE,
    decode_calls=frozenset({"decode_signed", "decode_dual", "open_holder_request"}),
    verify_calls=frozenset({"compare_digest", "is_element"}),
    durable_fields=_ORDERING_DURABLE,
    durable_attrs=_DURABLE_ATTRS,
    journal_methods=_JOURNAL_METHODS,
    exempt_functions=_PRIMITIVES,
)


@register
class JournalBeforeReply(Rule):
    code = "WP112"
    name = "journal-before-reply"
    scope = "program"
    rationale = (
        "A reply released before the covering journal write acknowledges "
        "state a crash can lose — the exact window the fsync-gated "
        "group-commit release exists to close."
    )

    def check(self, program: Program) -> Iterable[Diagnostic]:
        return ObligationAnalysis(program, ORDERING_CONFIG).run()


@register
class VerifyBeforeTrust(Rule):
    code = "WP113"
    name = "verify-before-trust"
    scope = "program"
    rationale = (
        "Applying envelope data to durable state before a signature or "
        "validation check dominates it lets a forged message mint, credit, "
        "or destroy value."
    )

    def check(self, program: Program) -> Iterable[Diagnostic]:
        return TrustAnalysis(program, TRUST_CONFIG).run()
