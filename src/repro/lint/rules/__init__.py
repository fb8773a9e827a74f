"""Built-in rules — importing this package registers all of them."""

from repro.lint.rules import (  # noqa: F401
    anonymity,
    crypto,
    determinism,
    durability,
    exceptions,
    forbidden,
    liveness,
    ordering,
    secrets,
    transport,
    wire,
)
