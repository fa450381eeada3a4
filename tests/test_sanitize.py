from __future__ import annotations

import io
import json
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinbuzz.sanitize import (
    SanitizeStats,
    sanitize_line,
    sanitize_stream,
    sanitize_text,
)

# Independent scan used as the counting oracle: a valid escape is exactly
# backslash-u plus four hex digits, counted when its code point is >= 0x80.
_ORACLE_ESCAPE_RE = re.compile(rb"\\u([0-9a-fA-F]{4})")


def _oracle_nonascii_escape_count(data: bytes) -> int:
    return sum(1 for m in _ORACLE_ESCAPE_RE.finditer(data) if int(m.group(1), 16) >= 0x80)


def test_replaces_nonascii_escape_with_six_spaces():
    out, replaced, malformed = sanitize_line(b"price\\u2026rising")
    assert out == b"price      rising"
    assert replaced == 1
    assert malformed == 0


def test_identity_without_escapes():
    out, replaced, malformed = sanitize_line(b"no escapes here")
    assert out == b"no escapes here"
    assert replaced == 0
    assert malformed == 0


def test_malformed_escape_passes_through_and_is_counted():
    out, replaced, malformed = sanitize_line(b"bad\\u20Xtail")
    assert out == b"bad\\u20Xtail"
    assert replaced == 0
    assert malformed == 1


def test_truncated_escape_at_end_of_line_is_malformed():
    out, replaced, malformed = sanitize_line(b"tail\\u20")
    assert out == b"tail\\u20"
    assert malformed == 1


def test_ascii_escape_is_preserved():
    out, replaced, malformed = sanitize_line(b'{"a":"\\u0041"}')
    assert out == b'{"a":"\\u0041"}'
    assert replaced == 0
    assert malformed == 0


def test_boundary_code_point():
    assert sanitize_line(b"\\u007f")[0] == b"\\u007f"
    assert sanitize_line(b"\\u0080")[0] == b"      "


def test_surrogate_pair_becomes_twelve_spaces():
    out, replaced, _ = sanitize_line(b"x\\uD83D\\uDE00y")
    assert out == b"x            y"
    assert replaced == 2


def test_escaped_backslash_before_escape_is_not_special():
    # The scan is stateless, so the second backslash starts a real escape.
    out, replaced, _ = sanitize_line(b"a\\\\u2026b")
    assert out == b"a\\      b"
    assert replaced == 1


def test_hex_case_is_accepted():
    assert sanitize_line(b"\\u20AB")[1] == 1
    assert sanitize_line(b"\\u20ab")[1] == 1


def test_sanitize_text_mirrors_byte_behaviour():
    assert sanitize_text("price\\u2026rising") == "price      rising"
    assert sanitize_text("bad\\u20Xtail") == "bad\\u20Xtail"
    assert sanitize_text("plain") == "plain"


def test_stream_counts_lines_and_replacements():
    src = io.BytesIO(b'{"t":"a\\u2026b"}\n{"t":"plain"}\n{"t":"c"}\n')
    dst = io.BytesIO()
    stats = sanitize_stream(src, dst)
    assert stats.lines_in == stats.lines_out == 3
    assert stats.replacements == 1
    assert dst.getvalue().count(b"\n") == 3


def test_stream_empty_input():
    dst = io.BytesIO()
    stats = sanitize_stream(io.BytesIO(b""), dst)
    assert stats == SanitizeStats()
    assert dst.getvalue() == b""


def test_stream_preserves_missing_final_newline():
    dst = io.BytesIO()
    stats = sanitize_stream(io.BytesIO(b"one\ntwo"), dst)
    assert dst.getvalue() == b"one\ntwo"
    assert stats.lines_in == 2


def test_stream_thousand_lines_matches_escape_scan_oracle():
    rng = random.Random(1009)
    lines = []
    for _ in range(1000):
        parts = []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.25:
                parts.append(rb"\u" + f"{rng.randint(0x80, 0xFFFF):04x}".encode())
            elif roll < 0.35:
                parts.append(rb"\u" + f"{rng.randint(0, 0x7F):04x}".encode())
            elif roll < 0.45:
                parts.append(rb"\u2f")
            else:
                parts.append(bytes(rng.randint(0x20, 0x7E) for _ in range(rng.randint(1, 12))))
        lines.append(b"".join(parts))
    payload = b"\n".join(lines) + b"\n"
    expected = _oracle_nonascii_escape_count(payload)

    dst = io.BytesIO()
    stats = sanitize_stream(io.BytesIO(payload), dst)
    assert stats.lines_in == stats.lines_out == 1000
    assert stats.replacements == expected


def test_stats_merge_by_summing():
    merged = SanitizeStats(2, 2, 1, 0) + SanitizeStats(3, 3, 4, 2)
    assert merged == SanitizeStats(5, 5, 5, 2)


class _FailingSink:
    def __init__(self, writes_before_failure: int):
        self.remaining = writes_before_failure

    def write(self, data: bytes) -> int:
        if self.remaining <= 0:
            raise OSError("sink full")
        self.remaining -= 1
        return len(data)


def test_stream_failure_keeps_stats_for_completed_lines():
    stats = SanitizeStats()
    source = io.BytesIO(b"a\\u2026\nb\nc\n")
    with pytest.raises(OSError):
        # Each line costs two writes (body, terminator): line 1 completes,
        # line 2 dies on its body write.
        sanitize_stream(source, _FailingSink(2), stats)
    assert stats.lines_out == 1
    assert stats.replacements == 1


def test_sanitized_json_still_parses_when_raw_did():
    corpus = [
        b'{"text": "price\\u2026 up", "id": 1}',
        b'{"text": "\\uD83D\\uDE00 moon", "id": 2}',
        b'{"text": "plain ascii", "id": 3}',
        b'{"text": "mixed \\u00e9\\u0041", "id": 4}',
        b'{"broken": ',
        b"not json at all",
    ]
    for raw in corpus:
        clean, _, _ = sanitize_line(raw)
        try:
            json.loads(raw)
        except ValueError:
            continue
        json.loads(clean)


@given(st.binary(max_size=200))
def test_byte_length_is_always_preserved(data):
    out, _, _ = sanitize_line(data)
    assert len(out) == len(data)


@given(st.binary(max_size=200))
def test_sanitize_is_idempotent(data):
    once, _, _ = sanitize_line(data)
    twice, _, _ = sanitize_line(once)
    assert twice == once


@given(st.binary(max_size=200))
def test_inputs_without_escape_prefix_are_bit_exact(data):
    if b"\\u" in data:
        return
    out, replaced, malformed = sanitize_line(data)
    assert out == data
    assert replaced == 0
    assert malformed == 0


# Lines built from escapes, partial escapes, UTF-8 fragments and raw bytes, so
# that scrubbing and undecodable bytes meet often; "\n" ends a line, so none.
_LINE_PARTS = st.one_of(
    st.binary(max_size=8),
    st.sampled_from([b"\\u", b"\\u00e9", b"\\u0041", b"\\u20", b"\\uD83D", b"\\", b"u", b"\xc3", b"\xa9", b"\xe2\x80"]),
)


@given(st.lists(_LINE_PARTS, max_size=12).map(lambda parts: b"".join(parts).replace(b"\n", b"")))
def test_sanitize_text_of_decoded_line_equals_decoded_sanitize_line(data):
    # run-all scrubs capture lines after decoding them; `sanitize` scrubs bytes.
    assert sanitize_text(data.decode("utf-8", "replace")) == sanitize_line(data)[0].decode("utf-8", "replace")
