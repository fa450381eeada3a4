from __future__ import annotations

import random
import re
import string
import sys

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
    _fold,
    gazetteer_lookup,
    run_pipeline,
)

_NONSPACE_RE = re.compile(r"\S")


def _spans(annotations):
    return [(a.type, a.start, a.end) for a in annotations]


def _token_spans(text):
    """(type, start, end) of each token `run_pipeline` finds, left to right."""
    return _spans(run_pipeline(Document("d", text)).annotations)


# --- tokenizer ---------------------------------------------------------------

def test_tokenize_hashtag_and_words():
    assert _token_spans("#bitcoin to the moon") == [
        (HASHTAG, 0, 8),
        (TOKEN, 9, 11),
        (TOKEN, 12, 15),
        (TOKEN, 16, 20),
    ]


def test_tokenize_empty_text():
    assert _token_spans("") == []
    assert run_pipeline(Document("d", "")).annotations == []


def test_tokenize_mention_url_hashtag():
    text = "@alice https://x.io #btc"
    spans = _token_spans(text)
    # Independent character-index oracle for the fixture string.
    assert spans == [
        (MENTION, text.index("@alice"), text.index("@alice") + len("@alice")),
        (URL, text.index("https"), text.index(" #btc")),
        (HASHTAG, text.index("#btc"), len(text)),
    ]


def test_punctuation_tokenizes_per_character():
    spans = _token_spans("up!!")
    assert spans == [(TOKEN, 0, 2), (TOKEN, 2, 3), (TOKEN, 3, 4)]


def test_underscore_is_punctuation():
    spans = _token_spans("a_b")
    assert spans == [(TOKEN, 0, 1), (TOKEN, 1, 2), (TOKEN, 2, 3)]


def test_bare_hash_is_punctuation():
    spans = _token_spans("# x")
    assert spans == [(TOKEN, 0, 1), (TOKEN, 2, 3)]


def test_url_consumes_to_whitespace():
    text = "see http://a.b/c?d=1#frag end"
    spans = _token_spans(text)
    assert spans[1] == (URL, 4, text.index(" end"))


def _assert_partition(text: str) -> None:
    tokens = run_pipeline(Document("d", text)).annotations
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
    return run_pipeline(doc).spans


def test_lookup_is_case_insensitive():
    doc = Document("d", "Bitcoin rallies")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("bitcoin"))
    assert [span[:3] for span in lookups] == [(LOOKUP, 0, 7)]
    assert lookups[0][3] == {"major_type": "crypto", "minor_type": "coin"}


def test_longest_match_wins():
    doc = Document("d", "bitcoin cash drops")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("bitcoin", "bitcoin cash"))
    assert [span[:3] for span in lookups] == [(LOOKUP, 0, 12)]


def test_empty_gazetteer_yields_nothing():
    doc = Document("d", "bitcoin")
    assert gazetteer_lookup(doc, _tokens(doc), Gazetteer.from_entries({})) == []


def test_matched_tokens_are_consumed():
    doc = Document("d", "bitcoin bitcoin")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("bitcoin"))
    assert [span[:3] for span in lookups] == [(LOOKUP, 0, 7), (LOOKUP, 8, 15)]


# "İ".lower() is "i\u0307", one character longer, so the lowercase of a text holding a U+0130 no
# longer lines up with the text's offsets; each candidate is then lowercased on its own.
def test_lookup_after_a_dotted_capital_i():
    doc = Document("d", "İstanbul İstanbul bitcoin")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("bitcoin", "i\u0307stanbul"))
    assert [span[:3] for span in lookups] == [(LOOKUP, 0, 8), (LOOKUP, 9, 17), (LOOKUP, 18, 25)]


def test_no_lookup_on_text_shifted_by_a_dotted_capital_i():
    doc = Document("d", "İb.x")
    assert gazetteer_lookup(doc, _tokens(doc), _gazetteer("b.")) == []


@given(st.lists(st.text("İIib.#", min_size=1, max_size=4), min_size=1, max_size=8), st.data())
def test_each_lookup_covers_a_surface_in_text_with_a_dotted_capital_i(words, data):
    text = " ".join(words)
    at = data.draw(st.integers(0, len(text)))
    text = text[:at] + "İ" + text[at:]
    gazetteer = _gazetteer(*data.draw(st.lists(st.sampled_from(text.split()), min_size=1, max_size=3)))
    doc = Document("d", text)
    for _, start, end, _ in gazetteer_lookup(doc, _tokens(doc), gazetteer):
        assert text[start:end].lower() in gazetteer.entries


# "ΑΣ".lower() is "ας" but "ΑΣ.Β".lower() is "ασ.β": a final sigma folds to a plain one, so a
# surface matches the same text wherever it stands, and with or without a U+0130 before it.
@pytest.mark.parametrize(
    "text, surface, expected",
    [
        ("ΑΣ.Β", "ΑΣ", [(0, 2)]),
        ("ΑΣ Β ΑΣ.Β ας ασ", "ας", [(0, 2), (5, 7), (10, 12), (13, 15)]),
        ("ΑΣ.Β ", "ΑΣ.Β", [(0, 4)]),
        ("İ ΑΣ.Β", "ΑΣ.Β", [(2, 6)]),
        ("İ ΟΔΟΣ.Β", "οδος", [(2, 6)]),
    ],
    ids=["sigma-before-dot", "every-sigma", "surface-with-dot", "after-dotted-i", "final-in-surface"],
)
def test_lookup_folds_a_final_sigma(text, surface, expected):
    doc = Document("d", text)
    assert [span[1:3] for span in gazetteer_lookup(doc, _tokens(doc), _gazetteer(surface))] == expected


def test_surfaces_that_differ_by_a_final_sigma_are_one_entry():
    gazetteer = Gazetteer.from_entries({"ας": ("a", "final"), "ΑΣ": ("b", "capital"), "ασ": ("c", "plain")})
    assert gazetteer.entries == {"ασ": ("c", "plain")}


def test_lookup_spans_hashtag_surface():
    doc = Document("d", "#bitcoin up")
    lookups = gazetteer_lookup(doc, _tokens(doc), _gazetteer("#bitcoin"))
    assert [span[:3] for span in lookups] == [(LOOKUP, 0, 8)]


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


def test_gazetteer_load_names_the_line_that_is_not_utf8(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "gaz.tsv").write_bytes(b"bitcoin\tcrypto\tcoin\nbtc\xff\tcrypto\tticker\n")
    with pytest.raises(ValueError) as raised:
        Gazetteer.load("gaz.tsv")
    assert str(raised.value) == "'gaz.tsv':2: not UTF-8"


def test_entries_of_a_category_share_one_tuple():
    gazetteer = Gazetteer.from_entries({"bitcoin": ("crypto", "coin"), "btc": ("crypto", "coin"), "x": ("a", "b")})
    assert gazetteer.entries["bitcoin"] is gazetteer.entries["btc"]
    assert gazetteer.entries == {"bitcoin": ("crypto", "coin"), "btc": ("crypto", "coin"), "x": ("a", "b")}


# A lookup probes the fold of a text up to one of its token ends, so a surface's prefixes are kept
# only at its own token ends and, inside a URL, where a text's token can end: at every character.
def test_prefixes_end_at_token_ends_and_anywhere_in_a_url():
    gazetteer = Gazetteer.from_entries({"Bitcoin cash!": ("crypto", "coin"), "see kab://x": ("url", "odd")})
    assert gazetteer.prefixes == {
        "bitcoin": None, "bitcoin cash": None, "bitcoin cash!": ("crypto", "coin"),
        "see": None, "see k": None, "see ka": None, "see kab": None, "see kab:": None, "see kab:/": None,
        "see kab://": None, "see kab://x": ("url", "odd"),
    }
    # A match of the URL can span up to one text token per character: `\u212aab://x` is five.
    assert gazetteer.max_tokens == 8


# The facts about folding that `Gazetteer.prefixes` rests on, for every code point that folding
# changes in this interpreter's Unicode version: a text's token ends stay token ends of its fold
# unless U+0130 splits a token or a Kelvin sign, folded to `k`, begins a URL scheme.
def test_folding_changes_a_token_class_only_where_gazetteer_prefixes_allows():
    space, alnum = re.compile(r"\s"), re.compile(r"[^\W_]")
    folded = [(c, f) for c, f in ((c, _fold(c)) for c in map(chr, range(sys.maxunicode + 1))) if f != c]
    assert [c for c, f in folded if any(bool(space.match(x)) != bool(space.match(c)) for x in f)] == []
    assert [c for c, f in folded if any(bool(alnum.match(x)) != bool(alnum.match(c)) for x in f)] == ["\u0130"]
    assert [c for c, f in folded if set(f) & set("#@:/")] == []
    # The `i` of U+0130's fold is followed by U+0307, which no URL scheme holds.
    gains_a_letter = {c: f for c, f in folded if c not in string.ascii_letters and set(f) & set(string.ascii_letters)}
    assert gains_a_letter == {"\u0130": "i\u0307", "\u212a": "k"}


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
    assert [tuple(a) for a in first.annotations] == [
        tuple(a) for a in second.annotations
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
    with pytest.raises(AttributeError):
        doc.text = "changed"


def test_add_rejects_out_of_bounds_span():
    adoc = AnnotatedDocument(Document("d", "abc"))
    with pytest.raises(ValueError):
        adoc.add(TOKEN, 0, 4)
    with pytest.raises(ValueError):
        adoc.add(TOKEN, 2, 1)


@pytest.mark.parametrize("start, end", [(True, 2), (0, 2.0), (False, True), (0, 2.5)])
def test_add_rejects_offsets_that_are_not_ints(start, end):
    adoc = AnnotatedDocument(Document("d", "abc"))
    with pytest.raises(ValueError, match="offsets must be ints"):
        adoc.add(TOKEN, start, end)
    assert adoc.spans == []


def test_from_json_rejects_offsets_that_are_not_json_integers():
    # Accepted, `"start":true,"end":2.0` would be written back as `"start":True,"end":2.0`, which is not JSON.
    payload = '{"doc_id":"d","text":"abc","annotations":[{"id":0,"type":"Token","start":true,"end":2.0,"features":{}}]}'
    with pytest.raises(ValueError, match="offsets must be ints"):
        AnnotatedDocument.from_json(payload)


def test_serialization_round_trip_is_bit_exact():
    adoc = _sample_adoc()
    payload = adoc.to_json()
    recovered = AnnotatedDocument.from_json(payload)
    assert recovered.doc.doc_id == adoc.doc.doc_id
    assert recovered.doc.text == adoc.doc.text
    assert [tuple(a) for a in recovered.annotations] == [
        tuple(a) for a in adoc.annotations
    ]
    assert recovered.to_json() == payload


def test_serialization_keeps_unicode_text():
    adoc = AnnotatedDocument(Document("d", "café …"))
    adoc.add(TOKEN, 0, 4, {"kind": "word"})
    recovered = AnnotatedDocument.from_json(adoc.to_json())
    assert recovered.doc.text == "café …"
    assert recovered.annotations[0].features == {"kind": "word"}


# --- the span store ----------------------------------------------------------

_WORDS = ("bitcoin", "Bitcoin", "cash", "to", "the", "moon", "#btc", "@al", "http://x.io", "!", "café")
_GAZETTEERS = st.dictionaries(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
    st.tuples(st.sampled_from(("crypto", "m")), st.sampled_from(("coin", "phrase"))),
    max_size=6,
).map(Gazetteer.from_entries)
_TEXTS = st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=3)), max_size=12).map(" ".join)


@given(_TEXTS, _GAZETTEERS)
def test_annotations_are_fresh_copies_of_the_spans(text, gazetteer):
    adoc = run_pipeline(Document("d", text), gazetteer)
    first, second = adoc.annotations, adoc.annotations
    assert [a.ann_id for a in first] == list(range(len(adoc.spans)))
    assert [(a.type, a.start, a.end, a.features) for a in first] == [
        (type, start, end, features or {}) for type, start, end, features in adoc.spans
    ]
    assert first == second
    stored = [features for *_, features in adoc.spans]
    for one, other, features in zip(first, second, stored):
        assert one is not other
        assert one.features is not other.features
        assert one.features is not features
    # Editing a handed-out copy leaves the store as it was.
    for ann in first:
        ann.features["edited"] = "yes"
    assert adoc.annotations == second


def test_round_trip_keeps_spans_with_added_features():
    adoc = _sample_adoc()
    adoc.add(TOKEN, 0, 7, {"kind": "word"})
    adoc.add("Custom", 8, 12)
    adoc.add(LOOKUP, 0, 12, {"major_type": "crypto", "minor_type": "coin", "note": "\"quoted\""})
    recovered = AnnotatedDocument.from_json(adoc.to_json())
    assert recovered.spans == adoc.spans
    assert recovered.spans[-3][3] == {"kind": "word"}
    assert recovered.spans[-2][3] is None


def test_add_copies_the_features_it_stores():
    adoc = AnnotatedDocument(Document("d", "hello"))
    features = {"kind": "word"}
    ann = adoc.add(TOKEN, 0, 5, features)
    features["kind"] = "changed"
    ann.features["kind"] = "changed too"
    assert adoc.spans == [(TOKEN, 0, 5, {"kind": "word"})]


@pytest.mark.parametrize("span", [(TOKEN, -1, 2, None), (TOKEN, 0, 5000, None), (TOKEN, 3, 1, None)])
def test_only_add_and_run_pipeline_write_the_span_store(span):
    # A span past add's check written to the store would reach to_json: `"start":-1` as `"start":1023`.
    adoc = run_pipeline(Document("d", "hello world"))
    before = adoc.to_json()
    adoc.spans.append(span)
    adoc.spans[0] = span
    assert adoc.to_json() == before
    assert len(adoc.spans) == 2
