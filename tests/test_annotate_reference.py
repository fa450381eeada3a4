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
from typing import Iterable, Mapping, Sequence

from hypothesis import given, settings
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


def _ref_gazetteer_lookup(
    doc: Document, tokens: Sequence[Annotation], gazetteer: Gazetteer
) -> list[Annotation]:
    text = doc.text.lower()
    lookups: list[Annotation] = []
    i = 0
    n = len(tokens)
    while i < n:
        matched_j = -1
        for j in range(min(i + gazetteer.max_tokens, n) - 1, i - 1, -1):
            surface = text[tokens[i].start:tokens[j].end]
            if surface in gazetteer.entries:
                matched_j = j
                break
        if matched_j < 0:
            i += 1
            continue
        major, minor = gazetteer.entries[text[tokens[i].start:tokens[matched_j].end]]
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
# lowering, and U+00DF (sharp s) has no one-character uppercase form.
WORDS = (
    "bitcoin", "Bitcoin", "BITCOIN", "cash", "to", "the", "moon", "btc", "#btc", "#BTC",
    "@al", "http://x.io", "kab://x", "\u212aab://x", "\u212a", "K", "k",
    "\u0130stanbul", "istanbul", "i\u0307stanbul", "\u0130", "stra\u00dfe", "STRASSE",
    "\u00df", "\u1e9e", "caf\u00e9", "!", "\u2014", "up!", "a_b", "#", "",
)
SEPARATORS = (" ", "  ", "\t", "\n", "", " \u00a0")  # U+00A0 is whitespace to the tokenizer

word = st.one_of(st.sampled_from(WORDS), st.text(max_size=4))


def _texts() -> st.SearchStrategy[str]:
    pieces = st.lists(st.tuples(word, st.sampled_from(SEPARATORS)), max_size=14)
    return pieces.map(lambda parts: "".join(w + sep for w, sep in parts))


# Surface words that are one token once lowercased, so that one-word
# surfaces give max_tokens == 1.
ONE_TOKEN_WORDS = tuple(w for w in WORDS if len(list(_ref_token_spans(w.lower()))) == 1)


def _gazetteers(max_words: int) -> st.SearchStrategy[Gazetteer]:
    words = ONE_TOKEN_WORDS if max_words == 1 else WORDS[:-1]
    surface = st.lists(st.sampled_from(words), min_size=1, max_size=max_words).map(" ".join)
    categories = st.tuples(
        st.sampled_from(("crypto", "place", "\u00df\"")), st.sampled_from(("coin", "x", "\\"))
    )
    entries = st.dictionaries(surface, categories, max_size=12)
    return entries.filter(lambda e: all(s.strip() for s in e)).map(Gazetteer.from_entries)


def _check(doc_id: str, text: str, gazetteer: Gazetteer) -> None:
    doc = Document(doc_id, text)
    assert run_pipeline(doc).to_json() == _reference(doc, None)
    assert run_pipeline(doc, gazetteer).to_json() == _reference(doc, gazetteer)


@settings(max_examples=300)
@given(st.text(max_size=6), _texts(), _gazetteers(1))
def test_matches_reference_with_single_token_gazetteer(doc_id, text, gazetteer):
    assert gazetteer.max_tokens == 1
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
    assert gazetteer.max_tokens == 3
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


def test_matches_reference_when_lowercasing_retokenizes():
    # "\u212aab://x" is a Token and four punctuation Tokens, but its lowercase
    # form is one URL, so the surface's own token boundaries say nothing
    # about where a matching run of text tokens ends.
    gazetteer = Gazetteer.from_entries(
        {"kab://x": ("url", "odd"), "to the moon and back": ("m", "phrase")}
    )
    assert gazetteer.max_tokens == 5
    text = "\u212aab://x to the moon and back"
    adoc = run_pipeline(Document("d", text), gazetteer)
    lookups = [(ann.start, ann.end) for ann in adoc.annotations if ann.type == LOOKUP]
    assert lookups == [(0, 7), (8, len(text))]
    _check("d", text, gazetteer)
