"""The recursive codec `repro.messages.codec` had before its kernel was rewritten.

Kept verbatim (a helper call and a fresh tuple per field, one join per nesting
level) as the oracle of ``TestKernelMatchesReference``: the kernel in ``src/``
must write the same bytes and raise the same errors.  Nothing else imports it.

Retirement condition (DESIGN.md §1.1, "When a kept oracle may go"): committed
golden vectors cover this codec's accept *and* reject set (each wire type,
each ``CodecError``), and the kernel has gone 5 PRs unedited.  Both hold:
``golden_codec.json`` (``TestPinnedVectors``) pins the two sets, and the
kernel has long gone unedited (DESIGN.md §1.1).
"""

from __future__ import annotations

from typing import Any

from repro.messages.codec import MAGIC, CodecError


def encode(value: Any) -> bytes:
    return MAGIC + _encode(value)


def decode(data: bytes) -> Any:
    if not data[:1] == MAGIC:
        raise CodecError("bad magic byte (codec version mismatch?)")
    value, offset = _decode(data, 1)
    if offset != len(data):
        raise CodecError(f"{len(data) - offset} trailing bytes after value")
    return value


def _varlen(n: int) -> bytes:
    return n.to_bytes(8, "big")


def _encode(value: Any) -> bytes:
    if value is None:
        return b"n"
    # bool must be tested before int (bool is an int subclass).
    if isinstance(value, bool):
        return b"t" if value else b"f"
    if isinstance(value, int):
        sign = b"-" if value < 0 else b"+"
        magnitude = abs(value)
        body = magnitude.to_bytes(max(1, (magnitude.bit_length() + 7) // 8), "big")
        return b"i" + sign + _varlen(len(body)) + body
    if isinstance(value, bytes):
        return b"b" + _varlen(len(value)) + value
    if isinstance(value, str):
        body = value.encode("utf-8")
        return b"s" + _varlen(len(body)) + body
    if isinstance(value, (list, tuple)):
        body = b"".join(_encode(item) for item in value)
        return b"l" + _varlen(len(value)) + body
    if isinstance(value, dict):
        keys = list(value.keys())
        if not all(isinstance(k, str) for k in keys):
            raise CodecError("dict keys must be strings")
        if len(set(keys)) != len(keys):  # pragma: no cover - dicts dedupe keys
            raise CodecError("duplicate dict keys")
        body = b"".join(_encode(k) + _encode(value[k]) for k in sorted(keys))
        return b"d" + _varlen(len(keys)) + body
    raise CodecError(f"cannot encode values of type {type(value).__name__}")


def _take(data: bytes, offset: int, n: int) -> tuple[bytes, int]:
    if offset + n > len(data):
        raise CodecError("truncated message")
    return data[offset : offset + n], offset + n


def _decode(data: bytes, offset: int) -> tuple[Any, int]:
    tag, offset = _take(data, offset, 1)
    if tag == b"n":
        return None, offset
    if tag == b"t":
        return True, offset
    if tag == b"f":
        return False, offset
    if tag == b"i":
        sign, offset = _take(data, offset, 1)
        if sign not in (b"+", b"-"):
            raise CodecError("bad integer sign byte")
        raw_len, offset = _take(data, offset, 8)
        body, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        magnitude = int.from_bytes(body, "big")
        return (-magnitude if sign == b"-" else magnitude), offset
    if tag == b"b":
        raw_len, offset = _take(data, offset, 8)
        body, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        return body, offset
    if tag == b"s":
        raw_len, offset = _take(data, offset, 8)
        body, offset = _take(data, offset, int.from_bytes(raw_len, "big"))
        try:
            return body.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise CodecError("invalid UTF-8 in string") from exc
    if tag == b"l":
        raw_count, offset = _take(data, offset, 8)
        count = int.from_bytes(raw_count, "big")
        items = []
        for _ in range(count):
            item, offset = _decode(data, offset)
            items.append(item)
        return tuple(items), offset
    if tag == b"d":
        raw_count, offset = _take(data, offset, 8)
        count = int.from_bytes(raw_count, "big")
        out: dict[str, Any] = {}
        previous_key: str | None = None
        for _ in range(count):
            key, offset = _decode(data, offset)
            if not isinstance(key, str):
                raise CodecError("dict key is not a string")
            if previous_key is not None and key <= previous_key:
                raise CodecError("dict keys not in canonical order")
            value, offset = _decode(data, offset)
            out[key] = value
            previous_key = key
        return out, offset
    raise CodecError(f"unknown tag byte {tag!r}")
