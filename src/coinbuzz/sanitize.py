"""Escaped-Unicode scrubber for raw JSON-lines payloads.

Downstream annotators choke on non-ASCII `\\uXXXX` escape sequences, so each
syntactically valid escape whose code point is >= 0x80 is overwritten with six
ASCII spaces. The replacement is the same width as the escape, which keeps
every payload's byte length intact. ASCII-range escapes (`\\u0041` and
friends) are left for the JSON parser to decode; decoding is not this filter's
job. Escape prefixes with fewer than four hex digits pass through untouched
and are only counted.

The scan is stateless: a surrogate pair is just two independent escapes and
becomes twelve spaces.

`sanitize_text` applies `sanitize_line`, the one scrub rule, to a string's
UTF-8 bytes: escapes are ASCII, so decoding and scrubbing commute.
"""

from __future__ import annotations

import re
from typing import IO, Iterable

# Valid escape (4 hex digits) first, bare malformed prefix second. The scan
# consumes whatever it matched, so an ASCII escape is never re-entered.
_ESCAPE_RE = re.compile(rb"\\u([0-9a-fA-F]{4})|\\u")

_SIX_SPACES = b"      "


class SanitizeStats:
    """Counters for one sanitizer run; line counts always match. `vars()`
    lists them in the order they are printed."""

    def __init__(self) -> None:
        self.lines_in = 0
        self.lines_out = 0
        self.replacements = 0
        self.malformed_escapes = 0


def sanitize_line(line: bytes) -> tuple[bytes, int, int]:
    """Scrub one record; returns (line, replacements, malformed_escapes).

    Total over arbitrary byte strings. Output byte length always equals
    input byte length.
    """
    replacements = 0
    malformed = 0

    def sub(match: re.Match[bytes]) -> bytes:
        nonlocal replacements, malformed
        digits = match.group(1)
        if digits is None:
            malformed += 1
            return match.group(0)
        if int(digits, 16) >= 0x80:
            replacements += 1
            return _SIX_SPACES
        return match.group(0)

    return _ESCAPE_RE.sub(sub, line), replacements, malformed


def sanitize_text(text: str) -> str:
    """sanitize_line over the UTF-8 bytes of `text`; lone surrogates pass through."""
    if "\\u" not in text:
        return text
    return sanitize_line(text.encode("utf-8", "surrogatepass"))[0].decode("utf-8", "surrogatepass")


def sanitize_stream(source: Iterable[bytes] | IO[bytes], sink: IO[bytes]) -> SanitizeStats:
    """Filter a byte-line stream; lines come out in order, one per line in.

    Each line is scrubbed with its terminator, which no escape can include.
    I/O failures from either side propagate.
    """
    stats = SanitizeStats()
    for raw in source:
        stats.lines_in += 1
        cleaned, replaced, malformed = sanitize_line(raw)
        sink.write(cleaned)
        stats.lines_out += 1
        stats.replacements += replaced
        stats.malformed_escapes += malformed
    return stats
