"""WP103 — crypto hygiene: kernel routing and constant-time comparison.

Two checks:

* **Direct 3-argument ``pow``** outside :mod:`repro.crypto` — protocol and
  baseline layers must route modular exponentiation through
  :func:`repro.crypto.fastexp.mod_pow`, which runs on the libcrypto
  exponentiation kernel.  A raw ``pow`` both forfeits the speedup and
  fragments the hot path the benchmarks measure.  Inside
  ``repro.crypto`` raw ``pow`` stays legal: fastexp itself and the
  primitives beneath it are the implementation layer.

* **Variable-time equality on secret material** — ``==`` / ``!=`` between
  values whose names mark them as signatures, MACs, tags, nonces, or other
  secrets (or digest outputs), where early-exit byte comparison leaks the
  matching prefix length through timing.  ``hmac.compare_digest`` (or
  :func:`repro.crypto.primitives.constant_time_eq`) is the fix.
  Comparisons against literal constants are exempt: a literal is public by
  definition (wire-format type tags, sentinel bytes).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.asthelpers import identifier_parts
from repro.lint.diagnostics import Diagnostic
from repro.lint.engine import ModuleInfo
from repro.lint.registry import Rule, register

CRYPTO_PACKAGE = "repro.crypto"

#: Identifier parts that mark a value as secret/authenticator material.
SECRET_NAME_PARTS = frozenset(
    {
        "sig", "sigs", "signature", "signatures",
        "mac", "macs", "tag", "tags",
        "priv", "privkey", "nonce", "nonces",
        "secret", "digest", "hmac",
    }
)

_DIGEST_CALL_ATTRS = {"digest", "hexdigest"}


def _is_secretish(expr: ast.expr) -> bool:
    if isinstance(expr, ast.Name):
        return bool(identifier_parts(expr.id) & SECRET_NAME_PARTS)
    if isinstance(expr, ast.Attribute):
        return bool(identifier_parts(expr.attr) & SECRET_NAME_PARTS)
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
        # hashlib.sha256(...).digest() compared inline
        return expr.func.attr in _DIGEST_CALL_ATTRS
    return False


@register
class CryptoHygiene(Rule):
    code = "WP103"
    name = "crypto-hygiene"
    rationale = (
        "Raw modular pow bypasses the fastexp exponentiation kernel; early-exit "
        "equality on secrets leaks match length through timing."
    )

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        in_crypto = module.module == CRYPTO_PACKAGE or module.module.startswith(
            CRYPTO_PACKAGE + "."
        )
        for node in ast.walk(module.tree):
            if (
                not in_crypto
                and isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "pow"
                and len(node.args) == 3
            ):
                yield module.diagnostic(
                    node,
                    self.code,
                    "direct pow(base, exp, mod) outside repro.crypto — "
                    "route through repro.crypto.fastexp.mod_pow to use "
                    "the exponentiation kernel",
                )
            elif isinstance(node, ast.Compare) and len(node.ops) == 1:
                if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                    continue
                left, right = node.left, node.comparators[0]
                if isinstance(left, ast.Constant) or isinstance(right, ast.Constant):
                    continue  # literals are public values
                if _is_secretish(left) or _is_secretish(right):
                    yield module.diagnostic(
                        node,
                        self.code,
                        "variable-time ==/!= on secret material — use "
                        "hmac.compare_digest (repro.crypto.primitives."
                        "constant_time_eq)",
                    )
