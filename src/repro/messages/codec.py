"""Canonical, deterministic byte encoding for protocol values.

A tiny self-describing binary format (a deliberately boring TLV scheme):

* ``int``   — tag ``i``, signed magnitude
* ``bytes`` — tag ``b``
* ``str``   — tag ``s``, UTF-8
* ``bool``  — tag ``t``/``f``
* ``None``  — tag ``n``
* ``tuple``/``list`` — tag ``l``, length-prefixed items (decoded as tuple)
* ``dict`` (string keys) — tag ``d``, entries sorted by key

Two properties matter for the payment protocols:

1. **Determinism** — equal values encode to equal bytes (dicts are sorted),
   so signatures over encoded values are well-defined.
2. **Injectivity** — every length is explicit, so distinct values never
   share an encoding (no concatenation ambiguity to exploit in a forgery).

The format is versioned by the leading magic byte so stored messages can be
rejected cleanly if the codec ever changes.
"""

from __future__ import annotations

import struct
from typing import Any, Callable

MAGIC = b"\x01"  # codec version 1

# Every length and count on the wire is an unsigned 64-bit big-endian integer.
_U64 = struct.Struct(">Q")
_len8 = _U64.pack
_read8 = _U64.unpack_from

_int = int.from_bytes  # one global lookup in the decode loop, not a lookup and an attribute

_TRUNCATED = "truncated message"


class CodecError(ValueError):
    """Raised on unencodable values or malformed byte strings."""


def encode(value: Any) -> bytes:
    """Canonically encode ``value`` (see module docstring for the domain)."""
    parts = [MAGIC]
    _encode(value, type(value), parts.append)
    return b"".join(parts)


def _encode(value: Any, kind: type, emit: Callable[[bytes], None]) -> None:
    """Emit the encoding of ``value``; callers pass ``type(value)`` as ``kind``.

    Identity dispatch cannot take a ``bool`` for an ``int`` (``type(True)``
    is ``bool``); only a *subclass* instance reaches the ``isinstance``
    ladder at the bottom, which names its wire type and dispatches again.
    """
    if kind is int:
        if value < 0:
            value = -value
            emit(b"i-")
        else:
            emit(b"i+")
        body = value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
        emit(_len8(len(body)))
        emit(body)
    elif kind is bytes:
        emit(b"b")
        emit(_len8(len(value)))
        emit(value)
    elif kind is str:
        body = value.encode("utf-8")
        emit(b"s")
        emit(_len8(len(body)))
        emit(body)
    elif kind is list or kind is tuple:
        emit(b"l")
        emit(_len8(len(value)))
        for item in value:
            _encode(item, type(item), emit)
    elif kind is dict:
        for key in value:
            if not isinstance(key, str):
                raise CodecError("dict keys must be strings")
        emit(b"d")
        emit(_len8(len(value)))
        for key in sorted(value):
            _encode(key, type(key), emit)
            item = value[key]
            _encode(item, type(item), emit)
    elif value is None:
        emit(b"n")
    elif kind is bool:
        emit(b"t" if value else b"f")
    else:
        for base in (int, bytes, str, list, tuple, dict):
            if isinstance(value, base):
                return _encode(value, base, emit)
        raise CodecError(f"cannot encode values of type {kind.__name__}")


def decode(data: bytes) -> Any:
    """Inverse of :func:`encode`; raises :class:`CodecError` on bad input.

    One loop with an explicit stack of open containers: nesting depth is
    bounded by the input's length, not the interpreter's stack.  The bounds
    rule: a slice never raises, so every end computed from a length field is
    compared with ``size`` *before* the slice that uses it, and every
    single-byte read (tags are the integers indexing yields) follows a
    ``pos >= size`` test.
    """
    if not data[:1] == MAGIC:
        raise CodecError("bad magic byte (codec version mismatch?)")
    size = len(data)
    pos = 1
    stack: list[tuple[Any, int, str | None]] = []
    into: Any = []  # the open container: a list or a dict (the top level is a list of one)
    left = 1  # slots it still lacks; a dict's slots alternate key, value
    key: str | None = None  # the open dict's latest key; None when a list is open
    while True:
        if pos >= size:
            raise CodecError(_TRUNCATED)
        tag = data[pos]
        pos += 1
        if tag == 0x69:  # "i": sign byte, length, magnitude
            if pos >= size:
                raise CodecError(_TRUNCATED)
            sign = data[pos]
            if sign != 0x2B and sign != 0x2D:  # "+", "-"
                raise CodecError("bad integer sign byte")
            start = pos + 9
            if start > size:
                raise CodecError(_TRUNCATED)
            pos = start + _read8(data, pos + 1)[0]
            if pos > size:
                raise CodecError(_TRUNCATED)
            value: Any = _int(data[start:pos], "big")
            if sign == 0x2D:
                value = -value
        elif tag == 0x62 or tag == 0x73:  # "b", "s": length, body
            start = pos + 8
            if start > size:
                raise CodecError(_TRUNCATED)
            pos = start + _read8(data, pos)[0]
            if pos > size:
                raise CodecError(_TRUNCATED)
            value = data[start:pos]
            if tag == 0x73:
                try:
                    value = value.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise CodecError("invalid UTF-8 in string") from exc
        elif tag == 0x6C or tag == 0x64:  # "l", "d": count, then the children
            start = pos + 8
            if start > size:
                raise CodecError(_TRUNCATED)
            count = _read8(data, pos)[0]
            pos = start
            if count:
                # Nothing is allocated from ``count``: a lying one runs out of bytes.
                stack.append((into, left, key))
                into, left, key = ({}, 2 * count, "") if tag == 0x64 else ([], count, None)
                continue
            value = {} if tag == 0x64 else ()
        elif tag == 0x6E:  # "n"
            value = None
        elif tag == 0x74:  # "t"
            value = True
        elif tag == 0x66:  # "f"
            value = False
        else:
            raise CodecError(f"unknown tag byte {data[pos - 1:pos]!r}")
        # Put the value into the open container, closing every container it completes.
        while True:
            if key is None:
                into.append(value)
            elif left & 1:
                into[key] = value
            else:
                if not isinstance(value, str):
                    raise CodecError("dict key is not a string")
                if into and value <= key:
                    raise CodecError("dict keys not in canonical order")
                key = value
            left -= 1
            if left:
                break
            if not stack:
                if pos != size:
                    raise CodecError(f"{size - pos} trailing bytes after value")
                return value
            value = tuple(into) if key is None else into
            into, left, key = stack.pop()
