from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinbuzz.twitter import (
    BackoffPolicy,
    BackoffState,
    FailureMode,
    MalformedRecord,
    default_policies,
    ingest_capture,
    jitter_fraction,
    matches_keywords,
    next_delay,
    parse_created_at,
    parse_tweet,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "backoff_golden.json"


def _tweet_line(tweet_id: int, text: str, hashtags=(), created="Mon Jun 01 10:00:00 +0000 2015") -> str:
    return json.dumps(
        {
            "id": tweet_id,
            "created_at": created,
            "user": {"screen_name": f"user{tweet_id}"},
            "text": text,
            "entities": {"hashtags": [{"text": tag} for tag in hashtags]},
        }
    )


# --- parsing -----------------------------------------------------------------

def test_parse_minimal_record():
    record = parse_tweet(_tweet_line(1, "Bitcoin up"))
    assert record.id == 1
    assert record.text == "Bitcoin up"
    assert record.hashtags == ()
    assert record.user == "user1"
    assert record.created_at == datetime(2015, 6, 1, 10, 0, 0, tzinfo=timezone.utc)


def test_hashtags_are_lowercased():
    record = parse_tweet(_tweet_line(2, "nothing", hashtags=["Bitcoin"]))
    assert record.hashtags == ("bitcoin",)


def test_truncated_json_is_malformed():
    with pytest.raises(MalformedRecord):
        parse_tweet('{"id": 3, "text": "Bitco')


@pytest.mark.parametrize("missing", ["id", "created_at", "user", "text"])
def test_missing_mandatory_field_is_malformed(missing):
    payload = json.loads(_tweet_line(4, "Bitcoin"))
    del payload[missing]
    with pytest.raises(MalformedRecord):
        parse_tweet(json.dumps(payload))


def test_id_str_fallback():
    payload = json.loads(_tweet_line(5, "Bitcoin"))
    del payload["id"]
    payload["id_str"] = "99"
    assert parse_tweet(json.dumps(payload)).id == 99


# What int() would coerce to an id: two tweets with ids 1.5 and 1.7 must not share id 1.
@pytest.mark.parametrize(
    "key, value",
    [
        ("id", 1.5), ("id", 1.0), ("id", True), ("id", False), ("id", [7]), ("id_str", "1_0"), ("id_str", " 7 "),
        ("id_str", "+7"), ("id_str", "-7"), ("id_str", ""), ("id_str", "\u0667"), ("id_str", 7.0),
        pytest.param("id_str", "1" * 5000, id="id_str-past-the-int-digit-limit"),
    ],
)
def test_an_id_that_is_not_exact_is_malformed(key, value):
    payload = json.loads(_tweet_line(6, "Bitcoin"))
    del payload["id"]
    payload[key] = value
    with pytest.raises(MalformedRecord):
        parse_tweet(json.dumps(payload))


@pytest.mark.parametrize(
    "fields, tweet_id",
    [
        ({"id": -7}, -7), ({"id": "7"}, 7), ({"id_str": "007"}, 7),
        ({"id": None, "id_str": "7"}, 7), ({"id": 7, "id_str": "x"}, 7),
    ],
)
def test_an_exact_id_is_read(fields, tweet_id):
    payload = json.loads(_tweet_line(6, "Bitcoin"))
    del payload["id"]
    assert parse_tweet(json.dumps({**payload, **fields})).id == tweet_id


def test_an_id_number_past_the_int_digit_limit_is_one_malformed_line():
    line = _tweet_line(1, "Bitcoin").replace('"id": 1', '"id": ' + "1" * 5000)
    stats = ingest_capture([line, _tweet_line(2, "Bitcoin")], [].append)
    assert (stats.lines, stats.malformed, stats.matched) == (2, 1, 1)


def test_fractional_ids_are_malformed_not_duplicates():
    lines = [_tweet_line(1, "Bitcoin").replace('"id": 1', f'"id": {value}') for value in ("1.5", "1.7")]
    stats = ingest_capture(lines, [].append)
    assert (stats.malformed, stats.duplicates, stats.matched) == (2, 0, 0)


def test_created_at_honours_nonzero_offset():
    ts = parse_created_at("Mon Jun 01 10:00:00 +0200 2015")
    assert ts == datetime(2015, 6, 1, 8, 0, 0, tzinfo=timezone.utc)


def test_bad_created_at_is_malformed():
    with pytest.raises(MalformedRecord):
        parse_tweet(_tweet_line(6, "x", created="June 1st 2015"))


# A lone surrogate, which only a JSON escape yields, cannot be written as UTF-8; a surrogate pair can.
@pytest.mark.parametrize("field", ["text", "screen_name"])
def test_a_lone_surrogate_is_malformed(field):
    payload = json.loads(_tweet_line(7, "Bitcoin"))
    target = payload["user"] if field == "screen_name" else payload
    target[field] += "\ud800"
    line = json.dumps(payload)
    assert "\\ud800" in line
    with pytest.raises(MalformedRecord):
        parse_tweet(line)
    assert parse_tweet(line.replace("\\ud800", "\\ud83d\\ude00")).text.startswith("Bitcoin")


# --- keyword filter ----------------------------------------------------------

def test_keyword_match_ignores_case():
    assert matches_keywords("BiTcOiN rally", [])
    assert matches_keywords("BITCOIN", [])
    assert matches_keywords("bitcoin", [])


def test_hashtag_match_with_unrelated_text():
    assert matches_keywords("nothing to see", ["bitcoin"])
    assert matches_keywords("nothing to see", ["BITCOIN"])


def test_split_word_does_not_match():
    assert not matches_keywords("bit coin", [])


def test_whole_word_boundary_is_default():
    assert not matches_keywords("bitcoins are up", [])
    assert matches_keywords("#bitcoin inside text", [])


def test_substring_mode_relaxes_boundaries():
    assert matches_keywords("bitcoins are up", [], substring=True)


def test_keywords_with_hash_prefix_are_normalized():
    assert matches_keywords("bitcoin", [], keywords=["#Bitcoin"])


def test_multiple_keywords():
    assert matches_keywords("dogecoin to the moon", [], keywords=["bitcoin", "dogecoin"])


def test_empty_keywords_rejected():
    with pytest.raises(ValueError):
        matches_keywords("x", [], keywords=[])


# --- backoff -----------------------------------------------------------------

def test_first_failure_uses_base_delay():
    policy = BackoffPolicy(FailureMode.HTTP_ERROR, base_delay=1.0, factor=2.0, cap=320.0)
    delay, state = next_delay(policy, BackoffState(), FailureMode.HTTP_ERROR)
    assert delay == 1.0
    assert state.consecutive_failures == 1


def test_delay_is_capped():
    policy = BackoffPolicy(FailureMode.HTTP_ERROR, base_delay=1.0, factor=2.0, cap=320.0)
    delay, _ = next_delay(policy, BackoffState(9), FailureMode.HTTP_ERROR)
    assert delay == 320.0  # 2**9 = 512 > 320


def test_success_resets_state():
    policy = default_policies()[FailureMode.HTTP_ERROR]
    state = BackoffState(5)
    delay, state = next_delay(policy, state, None)
    assert delay == 0.0
    assert state == BackoffState()
    delay, _ = next_delay(policy, state, FailureMode.HTTP_ERROR)
    assert delay == 5.0


def test_default_http_schedule():
    policy = default_policies()[FailureMode.HTTP_ERROR]
    state = BackoffState()
    delays = []
    for _ in range(9):
        delay, state = next_delay(policy, state, FailureMode.HTTP_ERROR)
        delays.append(delay)
    assert delays == [5, 10, 20, 40, 80, 160, 320, 320, 320]


@given(
    base=st.floats(min_value=0.01, max_value=60.0),
    factor=st.floats(min_value=1.0, max_value=4.0),
    cap_mult=st.floats(min_value=1.0, max_value=100.0),
    failures=st.integers(min_value=0, max_value=40),
)
def test_delay_is_monotone_and_capped_without_jitter(base, factor, cap_mult, failures):
    policy = BackoffPolicy(FailureMode.NETWORK_ERROR, base, factor, base * cap_mult)
    previous = 0.0
    state = BackoffState()
    for _ in range(failures + 1):
        delay, state = next_delay(policy, state, FailureMode.NETWORK_ERROR)
        assert delay >= previous
        assert delay <= policy.cap
        previous = delay


def test_jitter_is_bounded_and_deterministic():
    for index in range(50):
        value = jitter_fraction(7, index)
        assert 0.0 <= value < 0.25
        assert value == jitter_fraction(7, index)
    assert jitter_fraction(7, 0) != jitter_fraction(8, 0)


def test_seeded_jitter_sequence_matches_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text())
    policy = BackoffPolicy(
        FailureMode.HTTP_ERROR,
        base_delay=golden["base_delay"],
        factor=golden["factor"],
        cap=golden["cap"],
        jitter_seed=golden["jitter_seed"],
    )
    state = BackoffState()
    delays = []
    for _ in range(len(golden["delays"])):
        delay, state = next_delay(policy, state, FailureMode.HTTP_ERROR)
        delays.append(delay)
    assert delays == golden["delays"]


def test_policy_validation():
    with pytest.raises(ValueError):
        BackoffPolicy(FailureMode.HTTP_ERROR, base_delay=0.0)
    with pytest.raises(ValueError):
        BackoffPolicy(FailureMode.HTTP_ERROR, base_delay=1.0, factor=0.5)
    with pytest.raises(ValueError):
        BackoffPolicy(FailureMode.HTTP_ERROR, base_delay=10.0, cap=1.0)


# --- collection --------------------------------------------------------------

def _records(n: int, matching_ids=()) -> list[str]:
    return [
        _tweet_line(i, "Bitcoin rally" if i in matching_ids else "stocks only")
        for i in range(1, n + 1)
    ]


def test_collect_forwards_only_matching_records():
    records = _records(10, matching_ids=(2, 4, 6, 8))
    out = []
    stats = ingest_capture(records, out.append)
    assert stats.lines == 10
    assert stats.matched == 4
    assert len(out) == 4
    # Soundness both ways: everything forwarded matches, and every parseable
    # record left behind does not.
    assert all(matches_keywords(msg.text, []) for msg in out)
    forwarded = {msg.author for msg in out}
    for line in records:
        record = parse_tweet(line)
        if f"user{record.id}" not in forwarded:
            assert not matches_keywords(record.text, record.hashtags)


def test_collect_deduplicates_by_id():
    line = _tweet_line(1, "Bitcoin twice")
    out = []
    stats = ingest_capture([line, line], out.append)
    assert stats.lines == 2
    assert stats.matched == 1


# --- file replay ingestion ---------------------------------------------------

def test_ingest_capture_counts_and_dedupes():
    lines = [
        _tweet_line(1, "Bitcoin up"),
        _tweet_line(1, "Bitcoin up"),
        _tweet_line(2, "no keyword"),
        "not json",
        _tweet_line(3, "nothing", hashtags=["bitcoin"]),
    ]
    out = []
    stats = ingest_capture(lines, out.append)
    assert stats.lines == 5
    assert stats.parsed == 4
    assert stats.malformed == 1
    assert stats.duplicates == 1
    assert stats.matched == 2
    assert [m.author for m in out] == ["user1", "user3"]
    assert all(m.stream_id == "twitter" for m in out)


def _counting(lines, pulled: list):
    """Yield lines, recording in `pulled` each one handed out."""
    for line in lines:
        pulled.append(line)
        yield line


def test_ingest_capture_streams_line_by_line():
    pulled, pulled_at_emit = [], []
    lines = [_tweet_line(1, "Bitcoin one"), _tweet_line(2, "Bitcoin two")]
    ingest_capture(_counting(lines, pulled), lambda m: pulled_at_emit.append(len(pulled)))
    assert pulled_at_emit == [1, 2]


_CAPTURE_EVENT = st.one_of(
    st.integers(1, 6).map(lambda i: _tweet_line(i, "Bitcoin up")),
    st.integers(1, 6).map(lambda i: _tweet_line(i, "stocks only")),
    st.sampled_from(["not json", "{}", "[1, 2]", '{"id": 1}']),
    st.sampled_from(["", "   ", "\n"]),
)


@given(st.lists(_CAPTURE_EVENT, max_size=40))
def test_ingest_capture_counter_identities(events):
    out = []
    stats = ingest_capture(events, out.append)
    assert stats.lines == stats.parsed + stats.malformed
    assert stats.matched <= stats.parsed - stats.duplicates
    assert len(out) == stats.matched
    assert stats.lines == sum(bool(e.strip()) for e in events)
    assert len({m.author for m in out}) == len(out)
