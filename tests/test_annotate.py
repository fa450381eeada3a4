from __future__ import annotations

import dataclasses
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinbuzz.annotate import (
    HASHTAG,
    LOOKUP,
    MENTION,
    TOKEN,
    TOKEN_TYPES,
    URL,
    AnnotatedDocument,
    Document,
    Gazetteer,
    gazetteer_lookup,
    run_pipeline,
    token_spans,
)

_NONSPACE_RE = re.compile(r"\S")


def _spans(annotations):
    return [(a.type, a.start, a.end) for a in annotations]


# --- tokenizer ---------------------------------------------------------------

def test_tokenize_hashtag_and_words():
    assert list(token_spans("#bitcoin to the moon")) == [
        (HASHTAG, 0, 8),
        (TOKEN, 9, 11),
        (TOKEN, 12, 15),
        (TOKEN, 16, 20),
    ]


def test_tokenize_empty_text():
    assert list(token_spans("")) == []
    assert run_pipeline(Document("d", "")).annotations == []


def test_tokenize_mention_url_hashtag():
    text = "@alice https://x.io #btc"
    spans = list(token_spans(text))
    # Independent character-index oracle for the fixture string.
    assert spans == [
        (MENTION, text.index("@alice"), text.index("@alice") + len("@alice")),
        (URL, text.index("https"), text.index(" #btc")),
        (HASHTAG, text.index("#btc"), len(text)),
    ]


def test_punctuation_tokenizes_per_character():
    spans = list(token_spans("up!!"))
    assert spans == [(TOKEN, 0, 2), (TOKEN, 2, 3), (TOKEN, 3, 4)]


def test_underscore_is_punctuation():
    spans = list(token_spans("a_b"))
    assert spans == [(TOKEN, 0, 1), (TOKEN, 1, 2), (TOKEN, 2, 3)]


def test_bare_hash_is_punctuation():
    spans = list(token_spans("# x"))
    assert spans == [(TOKEN, 0, 1), (TOKEN, 2, 3)]


def test_url_consumes_to_whitespace():
    text = "see http://a.b/c?d=1#frag end"
    spans = list(token_spans(text))
    assert spans[1] == (URL, 4, text.index(" end"))


def _assert_partition(text: str) -> None:
    tokens = run_pipeline(Document("d", text)).annotations
    assert _spans(tokens) == list(token_spans(text))
    spans = [(a.start, a.end) for a in tokens]
    covered = []
    for start, end in spans:
        covered.extend(range(start, end))
    assert len(covered) == len(set(covered)), "spans overlap"
    expected = [m.start() for m in _NONSPACE_RE.finditer(text)]
    assert sorted(covered) == expected


@given(st.text(max_size=120))
def test_token_spans_partition_nonwhitespace(text):
    _assert_partition(text)


def test_partition_on_tweetish_fixtures():
    for text in (
        "RT @bob: #Bitcoin http://x.io … rally!!",
        "  leading and trailing  ",
        "#a#b @c@d e//f",
        "élève café €5",
    ):
        _assert_partition(text)


# --- gazetteer ---------------------------------------------------------------

def _gazetteer(*surfaces: str) -> Gazetteer:
    return Gazetteer.from_entries({s: ("crypto", "coin") for s in surfaces})


def _tokens(doc: Document):
    return run_pipeline(doc).annotations


def test_lookup_is_case_insensitive():
    doc = Document("d", "Bitcoin rallies")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("bitcoin"))
    assert _spans(lookups) == [(LOOKUP, 0, 7)]
    assert lookups[0].features == {"major_type": "crypto", "minor_type": "coin"}


def test_longest_match_wins():
    doc = Document("d", "bitcoin cash drops")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("bitcoin", "bitcoin cash"))
    assert _spans(lookups) == [(LOOKUP, 0, 12)]


def test_empty_gazetteer_yields_nothing():
    doc = Document("d", "bitcoin")
    assert gazetteer_lookup(doc, _tokens(doc), Gazetteer.from_entries({})) == []


def test_matched_tokens_are_consumed():
    doc = Document("d", "bitcoin bitcoin")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("bitcoin"))
    assert _spans(lookups) == [(LOOKUP, 0, 7), (LOOKUP, 8, 15)]


def test_lookup_spans_hashtag_surface():
    doc = Document("d", "#bitcoin up")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("#bitcoin"))
    assert _spans(lookups) == [(LOOKUP, 0, 8)]


def test_gazetteer_load(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("Bitcoin\tcrypto\tcoin\ndogecoin\tcrypto\tcoin\n\n", encoding="utf-8")
    gaz = Gazetteer.load(path)
    assert gaz.entries["bitcoin"] == ("crypto", "coin")
    assert len(gaz.entries) == 2


def test_gazetteer_load_rejects_bad_line(tmp_path):
    path = tmp_path / "gaz.tsv"
    path.write_text("only-two\tfields\n", encoding="utf-8")
    with pytest.raises(ValueError):
        Gazetteer.load(path)


def test_gazetteer_rejects_empty_surface():
    with pytest.raises(ValueError):
        Gazetteer.from_entries({"": ("a", "b")})


# --- pipeline ----------------------------------------------------------------

FIXTURE_TEXT = "Bitcoin cash up! @al https://x.io #btc"
FIXTURE_GAZ = {"bitcoin cash": ("crypto", "coin"), "btc": ("crypto", "ticker")}


def test_run_pipeline_matches_hand_count():
    # Hand count: tokens Bitcoin,cash,up,! = 4, @al, URL, #btc = 3, lookup 1.
    doc = Document("d", FIXTURE_TEXT)
    adoc = run_pipeline(doc, Gazetteer.from_entries(FIXTURE_GAZ))
    assert len(adoc.annotations_in((TOKEN,))) == 4
    assert len(adoc.annotations_in((MENTION,))) == 1
    assert len(adoc.annotations_in((URL,))) == 1
    assert len(adoc.annotations_in((HASHTAG,))) == 1
    assert _spans(adoc.annotations_in((LOOKUP,))) == [(LOOKUP, 0, 12)]
    assert len(adoc.annotations) == 8


def test_pipeline_is_deterministic_including_ids():
    doc = Document("d", FIXTURE_TEXT)
    gazetteer = Gazetteer.from_entries(FIXTURE_GAZ)
    first = run_pipeline(doc, gazetteer)
    second = run_pipeline(doc, gazetteer)
    assert [dataclasses.astuple(a) for a in first.annotations] == [
        dataclasses.astuple(a) for a in second.annotations
    ]


def test_annotation_ids_are_dense_in_stage_order():
    doc = Document("d", FIXTURE_TEXT)
    adoc = run_pipeline(doc, Gazetteer.from_entries(FIXTURE_GAZ))
    assert [a.ann_id for a in adoc.annotations] == list(range(len(adoc.annotations)))
    assert adoc.annotations[-1].type == LOOKUP


# --- span queries ------------------------------------------------------------

def _sample_adoc() -> AnnotatedDocument:
    doc = Document("d", FIXTURE_TEXT)
    return run_pipeline(doc, Gazetteer.from_entries(FIXTURE_GAZ))


def test_whole_document_query_returns_everything():
    adoc = _sample_adoc()
    result = adoc.annotations_in(window=(0, len(FIXTURE_TEXT)))
    assert len(result) == len(adoc.annotations)
    keys = [(a.start, a.end, a.ann_id) for a in result]
    assert keys == sorted(keys)


def test_zero_width_window_inside_token():
    adoc = AnnotatedDocument(Document("d", "hello"))
    token = adoc.add(TOKEN, 0, 5)
    assert adoc.annotations_in(window=(2, 2)) == [token]
    assert adoc.annotations_in(window=(0, 0)) == [token]
    assert adoc.annotations_in(window=(5, 5)) == []


def test_type_filter():
    adoc = _sample_adoc()
    assert all(a.type in (TOKEN, HASHTAG) for a in adoc.annotations_in((TOKEN, HASHTAG)))


def test_window_bounds_validated():
    adoc = _sample_adoc()
    with pytest.raises(ValueError):
        adoc.annotations_in(window=(0, len(FIXTURE_TEXT) + 1))


def _brute_force(adoc, types, window):
    out = []
    for ann in adoc.annotations:
        if types is not None and ann.type not in set(types):
            continue
        if window is not None:
            a, b = window
            if a == b:
                if not (ann.start <= a < ann.end):
                    continue
            elif not (ann.start < b and a < ann.end):
                continue
        out.append(ann)
    return sorted(out, key=lambda ann: (ann.start, ann.end, ann.ann_id))


def test_query_matches_brute_force_on_random_documents():
    rng = random.Random(4242)
    gaz = Gazetteer.from_entries({"bitcoin": ("c", "c"), "to the moon": ("m", "m")})
    words = ["bitcoin", "to", "the", "moon", "#btc", "@al", "http://x.io", "!", "—", "café"]
    for _ in range(200):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(0, 12)))
        adoc = run_pipeline(Document("d", text), gaz)
        for _ in range(5):
            types = rng.choice([None, (TOKEN,), (LOOKUP, HASHTAG), TOKEN_TYPES])
            if text and rng.random() < 0.8:
                a = rng.randint(0, len(text))
                b = rng.randint(a, len(text))
                window = (a, b)
            else:
                window = None
            assert adoc.annotations_in(types, window) == _brute_force(adoc, types, window)


# --- stand-off integrity and serialization -----------------------------------

def test_document_text_is_immutable():
    doc = Document("d", "fixed")
    with pytest.raises(dataclasses.FrozenInstanceError):
        doc.text = "changed"


def test_add_rejects_out_of_bounds_span():
    adoc = AnnotatedDocument(Document("d", "abc"))
    with pytest.raises(ValueError):
        adoc.add(TOKEN, 0, 4)
    with pytest.raises(ValueError):
        adoc.add(TOKEN, 2, 1)


def test_covered_text_matches_spans():
    adoc = _sample_adoc()
    for ann in adoc.annotations_in(TOKEN_TYPES):
        assert adoc.covered_text(ann) == FIXTURE_TEXT[ann.start:ann.end]


def test_serialization_round_trip_is_bit_exact():
    adoc = _sample_adoc()
    payload = adoc.to_json()
    recovered = AnnotatedDocument.from_json(payload)
    assert recovered.doc.doc_id == adoc.doc.doc_id
    assert recovered.doc.text == adoc.doc.text
    assert [dataclasses.astuple(a) for a in recovered.annotations] == [
        dataclasses.astuple(a) for a in adoc.annotations
    ]
    assert recovered.to_json() == payload


def test_serialization_keeps_unicode_text():
    adoc = AnnotatedDocument(Document("d", "café …"))
    adoc.add(TOKEN, 0, 4, {"kind": "word"})
    recovered = AnnotatedDocument.from_json(adoc.to_json())
    assert recovered.doc.text == "café …"
    assert recovered.annotations[0].features == {"kind": "word"}
