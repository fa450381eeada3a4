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

The rule is one pattern, `_ESCAPE`, applied by `sanitize_line`.
`sanitize_text` applies `sanitize_line` to a string's UTF-8 bytes: the pattern
matches ASCII alone, and UTF-8 decoding maps each ASCII byte to its own
character, even next to bytes it cannot decode, so decoding and scrubbing
commute.
"""

from __future__ import annotations

import re
from typing import IO, Iterable

# A valid escape of code point 0x80 or more: 0x00-0x7F are exactly "00" plus a digit 0-7 plus a hex digit.
_ESCAPE = re.compile(rb"\\u(?!00[0-7])[0-9a-fA-F]{4}")
# A bare prefix: a "\u" that four hex digits do not follow.
_BARE_PREFIX = re.compile(rb"\\u(?![0-9a-fA-F]{4})")


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
    input byte length. A valid escape holds no second backslash, so each
    "\\u" of the line starts exactly one valid escape or one bare prefix:
    when every one was scrubbed, none is bare.
    """
    prefixes = line.count(b"\\u")
    if not prefixes:
        return line, 0, 0
    cleaned, replacements = _ESCAPE.subn(b"      ", line)
    malformed = 0 if replacements == prefixes else len(_BARE_PREFIX.findall(line))
    return cleaned, replacements, malformed


def sanitize_text(text: str) -> str:
    """sanitize_line over the UTF-8 bytes of `text`; lone surrogates pass through."""
    if "\\u" not in text:
        return text
    cleaned, replacements, _ = sanitize_line(text.encode("utf-8", "surrogatepass"))
    return cleaned.decode("utf-8", "surrogatepass") if replacements else text


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
