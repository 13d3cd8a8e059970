"""Uniform streams from SHAKE-128, the package's one source of randomness.

A stream is keyed by a domain and a tuple of non-negative integer parts: the
key is the domain, then each part as its minimal little-endian bytes, every
one of them preceded by its byte length as a little-endian 64-bit word, so
distinct (domain, parts) never hash the same bytes.  Its output is the
SHAKE-128 (FIPS 202) extendable output of the key, read as little-endian
64-bit words w, each mapped to the double (w >> 11) * 2^-53 in [0, 1).  SHAKE
output of any length starts with the output of every shorter length, so a
longer read extends a shorter one: a stream is read on by reading it again,
longer.

The domains in use: b"head" (an estimate's branch and window uniforms),
b"tail" (a repetition's rejection rounds), b"inst" (an instance's Gaussians)
and b"seed" (derive_seed).  Only hashlib and struct are used: an output
rests on no numpy random layer, and numpy.random is never imported.
"""

from __future__ import annotations

import hashlib
import struct

_LENGTH = struct.Struct("<Q")


def _key(domain: bytes, parts) -> bytes:
    chunks = [_LENGTH.pack(len(domain)), domain]
    for part in parts:
        if part < 0:
            raise ValueError(f"stream key parts must be non-negative integers, got {part}")
        raw = part.to_bytes((part.bit_length() + 7) // 8, "little")
        chunks += (_LENGTH.pack(len(raw)), raw)
    return b"".join(chunks)


def _words(domain: bytes, parts, n: int) -> tuple:
    return struct.unpack(f"<{n}Q", hashlib.shake_128(_key(domain, parts)).digest(8 * n))


def uniforms(domain: bytes, parts, n: int) -> list:
    """The first n uniform doubles (w >> 11) * 2^-53 of the stream keyed by domain and parts."""
    return [(w >> 11) * 2.0**-53 for w in _words(domain, parts, n)]


def derive_seed(*parts) -> int:
    """Stable 64-bit child seed from non-negative integer parts: the first word of their b"seed" stream."""
    return _words(b"seed", parts, 1)[0]
