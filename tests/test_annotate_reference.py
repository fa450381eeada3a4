"""Differential test: the annotator against a verbatim copy of its first version.

The reference below is the original per-span implementation of the tokenize
and gazetteer stages and of `AnnotatedDocument.to_json`: every span goes
through `add()`, the gazetteer re-reads tokens with `annotations_in` and
probes the entry dict from the longest candidate down, and serialization
builds a dict per span for `json.dumps`. The shipped annotator must produce
the same bytes for every document and gazetteer.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coinbuzz.annotate import (
    LOOKUP,
    TOKEN_TYPES,
    AnnotatedDocument,
    Annotation,
    Document,
    Gazetteer,
    run_pipeline,
)
from coinbuzz.cli import main

# --- reference implementation (verbatim apart from names) ---------------------

_REF_SCAN_RE = re.compile(
    r"(?P<url>[A-Za-z][A-Za-z0-9+.-]*://\S*)"
    r"|(?P<hashtag>\#[^\W_]+)"
    r"|(?P<mention>@[^\W_]+)"
    r"|(?P<token>[^\W_]+)"
    r"|(?P<punct>\S)",
    re.UNICODE,
)

_REF_GROUP_TYPE = {
    "url": "URL", "hashtag": "Hashtag", "mention": "Mention", "token": "Token", "punct": "Token",
}


def _ref_token_spans(text: str) -> Iterable[tuple[str, int, int]]:
    for match in _REF_SCAN_RE.finditer(text):
        yield _REF_GROUP_TYPE[match.lastgroup], match.start(), match.end()


def _ref_fold(run: str) -> str:
    """A run of text as the gazetteer compares it: lowercased alone, final sigma as a plain one."""
    return run.lower().replace("\u03c2", "\u03c3")


def _ref_gazetteer_lookup(
    doc: Document, tokens: Sequence[Annotation], gazetteer: Gazetteer
) -> list[Annotation]:
    text = doc.text
    lookups: list[Annotation] = []
    i = 0
    n = len(tokens)
    while i < n:
        matched_j = -1
        for j in range(min(i + gazetteer.max_tokens, n) - 1, i - 1, -1):
            surface = _ref_fold(text[tokens[i].start:tokens[j].end])
            if surface in gazetteer.entries:
                matched_j = j
                break
        if matched_j < 0:
            i += 1
            continue
        major, minor = gazetteer.entries[_ref_fold(text[tokens[i].start:tokens[matched_j].end])]
        lookups.append(
            Annotation(
                len(lookups),
                LOOKUP,
                tokens[i].start,
                tokens[matched_j].end,
                {"major_type": major, "minor_type": minor},
            )
        )
        i = matched_j + 1
    return lookups


def _ref_run_tokenize(adoc: AnnotatedDocument, resources: Mapping[str, object]) -> None:
    for type, start, end in _ref_token_spans(adoc.doc.text):
        adoc.add(type, start, end)


def _ref_run_gazetteer(adoc: AnnotatedDocument, resources: Mapping[str, object]) -> None:
    gazetteer = resources.get("gazetteer")
    if not isinstance(gazetteer, Gazetteer):
        raise ValueError("gazetteer stage needs a 'gazetteer' resource")
    tokens = adoc.annotations_in(TOKEN_TYPES)
    for ann in _ref_gazetteer_lookup(adoc.doc, tokens, gazetteer):
        adoc.add(ann.type, ann.start, ann.end, ann.features)


def _ref_to_json(adoc: AnnotatedDocument) -> str:
    record = {
        "doc_id": adoc.doc.doc_id,
        "text": adoc.doc.text,
        "annotations": [
            {
                "id": ann.ann_id,
                "type": ann.type,
                "start": ann.start,
                "end": ann.end,
                "features": ann.features,
            }
            for ann in adoc.annotations
        ],
    }
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def _reference(doc: Document, gazetteer: Gazetteer | None) -> str:
    adoc = AnnotatedDocument(doc)
    _ref_run_tokenize(adoc, {})
    if gazetteer is not None:
        _ref_run_gazetteer(adoc, {"gazetteer": gazetteer})
    return _ref_to_json(adoc)


# --- strategies -----------------------------------------------------------------

# Words chosen so that lowercasing matters: U+0130 (dotted capital I) lowers
# to two characters and shifts every later offset, the Kelvin sign U+212A
# lowers to ASCII "k" and so turns "\u212aab://x" into a URL only after
# lowering, U+00DF (sharp s) has no one-character uppercase form, and a
# capital sigma lowercases to a final sigma (U+03C2) only where no cased letter
# follows it, so "\u0391\u03a3." and "\u0391\u03a3.\u0392" lowercase its run differently.
WORDS = (
    "bitcoin", "Bitcoin", "BITCOIN", "cash", "to", "the", "moon", "btc", "#btc", "#BTC",
    "@al", "http://x.io", "kab://x", "\u212aab://x", "\u212a", "K", "k",
    "\u0130stanbul", "istanbul", "i\u0307stanbul", "\u0130", "stra\u00dfe", "STRASSE",
    "\u00df", "\u1e9e", "caf\u00e9", "!", "\u2014", "up!", "a_b",
    "\u0391\u03a3", "\u03b1\u03c2", "\u03b1\u03c3", "\u03a3", "\u03c2", "\u03c3", "\u0391\u03a3.\u0392",
    "\u039f\u0394\u039f\u03a3", ".", "\u0130\u03a3", "#",
    # Where a URL starts: at an ASCII letter of the scheme run before "://", and only at a match start.
    "\u00e9-abc://x", "\u00e9abc://x", "_abc://x", "a.b_c://x", "x://y://z", "1a://x", "+a://x", "#a://x",
    "@a://x", "a://", "ab:/c",
    "",
)
# U+00A0, U+3000, U+0085 and U+2028 are whitespace to the tokenizer, as are \x0b and \x1c.
SEPARATORS = (" ", "  ", "\t", "\n", "", " \u00a0", "\u3000", "\x0b", "\x1c", "\x85", "\u2028")

word = st.one_of(st.sampled_from(WORDS), st.text(max_size=4))


def _texts() -> st.SearchStrategy[str]:
    pieces = st.lists(st.tuples(word, st.sampled_from(SEPARATORS)), max_size=14)
    return pieces.map(lambda parts: "".join(w + sep for w, sep in parts))


# Surface words that are one token once lowercased, so that one-word
# surfaces each scan to one token.
ONE_TOKEN_WORDS = tuple(w for w in WORDS if len(list(_ref_token_spans(w.lower()))) == 1)

CATEGORIES = st.tuples(st.sampled_from(("crypto", "place", "\u00df\"")), st.sampled_from(("coin", "x", "\\")))


def _surfaces(max_words: int) -> st.SearchStrategy[str]:
    words = ONE_TOKEN_WORDS if max_words == 1 else WORDS[:-1]
    return st.lists(st.sampled_from(words), min_size=1, max_size=max_words).map(" ".join)


def _entries(max_words: int) -> st.SearchStrategy[dict[str, tuple[str, str]]]:
    entries = st.dictionaries(_surfaces(max_words), CATEGORIES, max_size=12)
    return entries.filter(lambda e: all(s.strip() for s in e))


def _gazetteers(max_words: int) -> st.SearchStrategy[Gazetteer]:
    return _entries(max_words).map(Gazetteer.from_entries)


def _check(doc_id: str, text: str, gazetteer: Gazetteer) -> None:
    doc = Document(doc_id, text)
    assert run_pipeline(doc).to_json() == _reference(doc, None)
    assert run_pipeline(doc, gazetteer).to_json() == _reference(doc, gazetteer)


@settings(max_examples=300)
@given(st.text(max_size=6), _texts(), _gazetteers(1))
def test_matches_reference_with_single_token_gazetteer(doc_id, text, gazetteer):
    assert all(len(list(_ref_token_spans(surface))) == 1 for surface in gazetteer.entries)
    _check(doc_id, text, gazetteer)


@settings(max_examples=300)
@given(st.text(max_size=6), _texts(), _gazetteers(3))
def test_matches_reference_with_multi_token_gazetteer(doc_id, text, gazetteer):
    _check(doc_id, text, gazetteer)


@given(st.text(max_size=80), _gazetteers(3))
def test_matches_reference_on_arbitrary_text(text, gazetteer):
    _check("d", text, gazetteer)


def test_matches_reference_on_fixed_cases():
    gazetteer = Gazetteer.from_entries(
        {
            "bitcoin": ("crypto", "coin"),
            "bitcoin cash": ("crypto", "coin"),
            "to the moon": ("m", "phrase"),
            "kab://x": ("url", "odd"),
            "i\u0307stanbul": ("place", "city"),
            "stra\u00dfe": ("place", "street"),
            "#btc": ("crypto", "tag"),
            "k bitcoin": ("x", "one-character first token"),
            "! up": ("x", "punctuation first token"),
        }
    )
    assert gazetteer.max_tokens == 7  # "kab://x" is one URL of 7 characters
    for text in (
        "",
        "   ",
        "Bitcoin cash to the moon #BTC",
        "\u212aab://x and kab://x and Kab://x",
        "\u0130stanbul \u0130stanbul bitcoin",
        "STRASSE stra\u00dfe \u1e9e bitcoin cash",
        "bitcoin bitcoin cash cash to the to the moon",
        "@al http://x.io/bitcoin #btc!",
        "K bitcoin \u212a bitcoin k cash",
        "up ! up !up",
    ):
        _check("doc:1", text, gazetteer)


# `to_json` reads each id and offset below 1,024 from a table and formats the others with `str`.
@pytest.mark.parametrize(
    "text",
    [
        "bitcoin cash " * 80,  # 1,040 characters
        "x" * 1023,  # the longest text whose offsets the table holds
        "x" * 1024,
        "!" * 1023,  # 1,023 spans, ending at offset 1,023
        "a!" * 520,  # 1,040 tokens and 520 lookups
        "bitcoin http://x.io/" + "b" * 1100 + " bitcoin cash",  # a URL token of 1,112 characters
    ],
    ids=["long-text", "1023-characters", "1024-characters", "1023-spans", "many-spans", "long-url"],
)
def test_matches_reference_past_the_decimal_table(text):
    gazetteer = Gazetteer.from_entries(
        {"bitcoin": ("crypto", "coin"), "bitcoin cash": ("crypto", "coin"), "a": ("x", "y")}
    )
    _check("doc:1", text, gazetteer)


@pytest.mark.parametrize("spans", [1024, 1025])
def test_matches_reference_with_ids_past_the_decimal_table(spans):
    adoc = AnnotatedDocument(Document("d", "abc"))
    for ann_id in range(spans):
        adoc.add("Token", ann_id % 4, 3)
    assert adoc.to_json() == _ref_to_json(adoc)


def test_matches_reference_on_added_types_and_feature_maps():
    adoc = AnnotatedDocument(Document("d", "Bitcoin cash"))
    adoc.add("Custom", 0, 7)
    adoc.add("Sentence \"1\"\u00e9", 0, 12, {"kind": "sentence"})
    adoc.add(LOOKUP, 0, 12, {"major_type": "crypto", "minor_type": "coin"})
    adoc.add(LOOKUP, 0, 7, {"minor_type": "coin", "major_type": "crypto"})  # the same map in another key order
    adoc.add(LOOKUP, 8, 12, {"major_type": "crypto", "minor_type": "coin"})
    adoc.add("Count", 0, 7, {"n": "1"})
    adoc.add("Count", 0, 7, {"n": 1})  # equal to no str map: an int value
    adoc.add("Count", 8, 12, {"n": 1.5, "ok": True, "none": None})
    adoc.add("List", 0, 12, {"tokens": ["Bitcoin", "cash"]})  # a list value, which cannot be hashed
    adoc.add("Keyed", 0, 12, {1: "one", "two": "2"})  # a key that is not a str
    for _ in range(2):  # the second time from the memo of feature-map texts
        assert adoc.to_json() == _ref_to_json(adoc)
        json.loads(adoc.to_json())


def test_matches_reference_when_lowercasing_retokenizes():
    # "\u212aab://x" is a Token and four punctuation Tokens, but its lowercase
    # form is one URL, so the surface's own token boundaries say nothing
    # about where a matching run of text tokens ends.
    gazetteer = Gazetteer.from_entries(
        {"kab://x": ("url", "odd"), "to the moon and back": ("m", "phrase")}
    )
    assert gazetteer.max_tokens == 7
    text = "\u212aab://x to the moon and back"
    adoc = run_pipeline(Document("d", text), gazetteer)
    lookups = [(ann.start, ann.end) for ann in adoc.annotations if ann.type == LOOKUP]
    assert lookups == [(0, 7), (8, len(text))]
    _check("d", text, gazetteer)


# The text is five tokens and the surface's fold one URL, so a match spans more tokens than the
# surface scans to: "\u212aab://x" folds to "kab://x", and "\u0130ab://x" to "i\u0307ab://x", whose
# U+0307 splits off the URL "ab://x".
@pytest.mark.parametrize("surface, text", [("kab://x", "\u212aab://x"), ("\u0130ab://x", "\u0130ab://x")],
                         ids=["kelvin-sign", "dotted-capital-i"])
def test_a_one_entry_gazetteer_matches_a_url_that_folding_joins(surface, text):
    gazetteer = Gazetteer.from_entries({surface: ("url", "odd")})
    adoc = run_pipeline(Document("d", text), gazetteer)
    assert [(ann.start, ann.end) for ann in adoc.annotations if ann.type == LOOKUP] == [(0, 7)]
    _check("d", text, gazetteer)


# An entry that occurs nowhere in a text takes no part in its lookups: no bound on how many
# tokens a match spans may depend on the other entries.
@settings(max_examples=300)
@given(_texts(), _entries(3), _surfaces(6))
@example("\u212aab://x", {"kab://x": ("url", "odd")}, "to the moon and back")
@example("\u0130ab://x", {"\u0130ab://x": ("url", "odd")}, "to the moon and back")
def test_an_entry_that_occurs_nowhere_in_a_text_changes_none_of_its_lookups(text, entries, extra):
    assume(extra.strip() and _ref_fold(extra) not in _ref_fold(text))
    doc = Document("d", text)
    annotated = run_pipeline(doc, Gazetteer.from_entries(entries)).to_json()
    assert run_pipeline(doc, Gazetteer.from_entries({**entries, extra: ("extra", "x")})).to_json() == annotated


# Every character that `\s` matches, which ends a URL and separates tokens.
WHITESPACE = tuple(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())

# Texts drawn mostly from the characters that decide where a URL starts and ends: scheme
# characters, "://" and its parts, characters next to a scheme that no scheme holds
# (`_`, `#`, `@`, non-ASCII letters, the Kelvin sign that folds to "k") and whitespace.
URL_ALPHABET = st.one_of(
    st.sampled_from(tuple("aZk09+.-")),
    st.sampled_from(("://", ":", "/", "_", "#", "@")),
    st.sampled_from(("\u00e9", "\u212a", "\u0130", "\u00df", "\u0661")),
    st.sampled_from(WHITESPACE),
    st.characters(),
)


@settings(max_examples=1000)
@given(st.lists(URL_ALPHABET, max_size=40).map("".join))
@example("1a.b://x")  # a digit of the scheme run starts no URL
@example("a\u3000b://x\tc://y")  # two URLs in one piece, each after whitespace other than " "
def test_token_spans_match_the_reference_scan(text):
    spans = [(type, start, end) for type, start, end, _ in run_pipeline(Document("d", text)).spans]
    assert spans == list(_ref_token_spans(text))


def test_cli_annotate_builds_no_annotation_object(tmp_path, monkeypatch):
    # The CLI only serializes, so its path must stay on the span tuples: an
    # Annotation built per span is the cost the tuples remove.
    messages = [
        ("twitter", "Bitcoin cash to the moon #BTC @al http://x.io/bitcoin"),
        ("irc:#c", ""),
        ("irc:#c", "K bitcoin!"),
    ]
    infile = tmp_path / "msgs.jsonl"
    infile.write_text(
        "".join(
            json.dumps({"stream_id": stream, "ts": "2015-06-01T10:00:00Z", "author": "a", "text": text}) + "\n"
            for stream, text in messages
        ),
        encoding="utf-8",
    )
    gaz = tmp_path / "gaz.tsv"
    gaz.write_text("bitcoin cash\tcrypto\tcoin\nbitcoin\tcrypto\tcoin\n#btc\tcrypto\ttag\n", encoding="utf-8")
    gazetteer = Gazetteer.load(gaz)
    expected = "".join(
        _reference(Document(f"{stream}:{line_no}", text), gazetteer) + "\n"
        for line_no, (stream, text) in enumerate(messages, start=1)
    )

    def refuse(self, *args, **kwargs):
        raise AssertionError("the CLI built an Annotation")

    monkeypatch.setattr(Annotation, "__init__", refuse)
    out = tmp_path / "annotated.jsonl"
    assert main(["annotate", "--in", str(infile), "--gazetteer", str(gaz), "--out", str(out)]) == 0
    assert out.read_bytes() == expected.encode("utf-8")
