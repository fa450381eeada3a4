"""Stand-off annotation pipeline: tokenizer, gazetteer lookup, span queries.

Document text is immutable; every annotator attaches typed spans with feature
maps instead of rewriting the text, so overlapping layers coexist and the
result can be traversed like a graph of spans. Offsets are Unicode scalar
indices (plain str indices), which survive re-serialization across encodings.

run_pipeline is the one annotator: it tokenizes a document, then adds a
gazetteer's lookups when one is given, handing out dense ids, tokens first, so
identical inputs always yield identical ids.

This is the per-document hot path, so spans are plain tuples: run_pipeline
takes them straight from the tokenizer, to_json formats them directly
(byte-identical to json.dumps), and only queries build Annotations. No token
holds whitespace, so the tokenizer splits the text on spaces and reads most
pieces whole with str methods: an alphanumeric piece is one Token, and `#` or
`@` before one a Hashtag or a Mention. Only the other pieces go through a
regex, which finds no URL itself: each "://" is found once with `find`, and a
match that starts with an ASCII letter in the run of scheme characters before
it begins a URL. So tokenizing is linear in the text, where a URL pattern tried
at every match start rescanned a run of scheme characters from each of them.
to_json reads each id and offset from a table of the decimal strings "0" to
"1023" when the document's numbers all lie in it, and formats them with str
when they do not; it takes each span's type from a prebuilt JSON fragment,
and a feature map's JSON from a small memo keyed by the map's items, as the
lookups of one gazetteer category carry equal maps. Formatting ints with str
took about a third of to_json's time.
"""

from __future__ import annotations

import json
import re
from functools import lru_cache
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

TOKEN = "Token"
HASHTAG = "Hashtag"
MENTION = "Mention"
URL = "URL"
LOOKUP = "Lookup"

TOKEN_TYPES = (TOKEN, HASHTAG, MENTION, URL)

# One match per non-whitespace atom of a piece that is not one token, tried in
# order: #/@ forms, then alphanumeric runs (`[^\W_]+`, the characters
# `str.isalnum` accepts), then any leftover character as one-char punctuation.
# `_scan` finds the URLs among the matches.
_ATOM_RE = re.compile(r"(\#[^\W_]+)|(@[^\W_]+)|([^\W_]+|\S)")

# Annotation type by group number (match.lastindex), in the groups' order above.
_ATOM_TYPE = (None, HASHTAG, MENTION, TOKEN)

# A URL is an ASCII letter, more scheme characters, "://" and the non-whitespace after it.
_SCHEME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+.-"
_SCHEME_FIRST = _SCHEME_CHARS[:52]
_NON_SPACE_RUN = re.compile(r"\S*")

# to_json output equals json.dumps(record, ensure_ascii=False,
# separators=(",", ":")). Strings go through encode_basestring, the function
# that encoder applies to every str; feature maps whose keys or values are
# not all str go through the encoder itself.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))

# "0" to "1023": each id, start and end of a document of fewer than 1,024
# characters and at most 1,024 spans, as str writes it, in about 60 KB.
_DECIMALS = tuple(map(str, range(1024)))


class _AnyDecimals:
    """`_DECIMALS` for a document past its end: `decimals[n]` is `str(n)`."""

    __getitem__ = staticmethod(str)


_ANY_DECIMALS = _AnyDecimals()


class _TypeFragments(dict):
    """`,"type":<type>,"start":` of each built-in annotation type; others built per call."""

    def __missing__(self, type: str) -> str:
        return f',"type":{_ENCODER.encode(type)},"start":'


_TYPE_FRAGMENTS = _TypeFragments((t, f',"type":{encode_basestring(t)},"start":') for t in (*TOKEN_TYPES, LOOKUP))


@lru_cache(maxsize=256)
def _str_features_json(items: tuple[tuple[str, str], ...]) -> str:
    return "{%s}" % ",".join([f"{encode_basestring(key)}:{encode_basestring(value)}" for key, value in items])


def _features_json(features: Mapping[str, object]) -> str:
    """The JSON of a feature map; that of a map of str to str is memoized, as
    the maps of one gazetteer category are equal."""
    try:
        return _str_features_json(tuple(features.items()))
    except TypeError:  # a key or value that is not a str, or cannot be hashed
        return _ENCODER.encode(features)


class Document(NamedTuple):
    doc_id: str
    text: str


class Annotation(NamedTuple):
    ann_id: int
    type: str
    start: int
    end: int
    features: dict[str, str]


Span = tuple[str, int, int, dict[str, str] | None]  # type, start, end, features


def _annotation(ann_id: int, span: Span) -> Annotation:
    return Annotation(ann_id, *span[:3], dict(span[3] or {}))


class AnnotatedDocument:
    """A document plus its stand-off annotations, queryable by type and span.

    The store holds one `(type, start, end, features or None)` tuple per annotation, in id order,
    with int offsets `0 <= start <= end <= len(text)`. `to_json` relies on that, so only `add`,
    which checks it, and `run_pipeline`, whose spans hold it by construction, write the store."""

    def __init__(self, doc: Document):
        self.doc = doc
        self._spans: list[Span] = []

    @property
    def spans(self) -> list[Span]:
        """A new list of the stored span tuples: adding to it adds no span."""
        return list(self._spans)

    @property
    def annotations(self) -> list[Annotation]:
        return [_annotation(ann_id, span) for ann_id, span in enumerate(self._spans)]

    def add(self, type: str, start: int, end: int, features: dict[str, str] | None = None) -> Annotation:
        # Exactly int (`type` names the parameter here): to_json would write a bool or a float as no JSON integer.
        if not (start.__class__ is int and end.__class__ is int):
            raise ValueError(f"span offsets must be ints, got {start!r:.40} and {end!r:.40}")
        if not (0 <= start <= end <= len(self.doc.text)):
            raise ValueError(f"span [{start},{end}) outside text of length {len(self.doc.text)}")
        self._spans.append((type, start, end, dict(features) if features else None))
        return _annotation(len(self._spans) - 1, self._spans[-1])

    def annotations_in(
        self,
        types: Iterable[str] | None = None,
        window: tuple[int, int] | None = None,
    ) -> list[Annotation]:
        """Annotations of the given types overlapping the window.

        Half-open spans: [s,e) overlaps [a,b) when s < b and a < e. A
        zero-width window at p counts as inside span [s,e) when s <= p < e.
        Results are ordered by (start, end, ann_id).
        """
        wanted = set(types) if types is not None else None
        if window is not None:
            a, b = window
            if not (0 <= a <= b <= len(self.doc.text)):
                raise ValueError(f"window [{a},{b}) outside text")
        hits = []
        for ann_id, (type, start, end, _) in enumerate(self._spans):
            if wanted is not None and type not in wanted:
                continue
            if window is None or (start <= a < end if a == b else start < b and a < end):
                hits.append((start, end, ann_id))
        hits.sort()
        return [_annotation(ann_id, self._spans[ann_id]) for _, _, ann_id in hits]

    def to_json(self) -> str:
        """One JSON line: doc_id, text and every annotation in id order.

        Each span's offsets lie in `[0, len(text)]`, as the store holds, so each
        number is below 1,024 in a document of fewer than 1,024 characters and
        at most 1,024 spans, and comes from `_DECIMALS`; past it, from `str`."""
        text, spans = self.doc.text, self._spans
        decimals = _DECIMALS if len(text) < len(_DECIMALS) and len(spans) <= len(_DECIMALS) else _ANY_DECIMALS
        types = _TYPE_FRAGMENTS
        annotations = ",".join([
            f'{{"id":{decimals[ann_id]}{types[type]}{decimals[start]},"end":{decimals[end]},'
            f'"features":{_features_json(features) if features else "{}"}}}'
            for ann_id, (type, start, end, features) in enumerate(spans)
        ])
        doc_id = _ENCODER.encode(self.doc.doc_id)
        return f'{{"doc_id":{doc_id},"text":{encode_basestring(text)},"annotations":[{annotations}]}}'

    @classmethod
    def from_json(cls, payload: str) -> "AnnotatedDocument":
        record = json.loads(payload)
        adoc = cls(Document(record["doc_id"], record["text"]))
        for item in record["annotations"]:
            ann = adoc.add(item["type"], item["start"], item["end"], item["features"])
            if ann.ann_id != item["id"]:
                raise ValueError(f"non-dense annotation id {item['id']}")
        return adoc


# Gazetteer.prefixes.get default: the candidate starts no surface.
_NOT_A_PREFIX = object()

# What errors="surrogateescape" decodes a byte that is not UTF-8 to; valid UTF-8 never decodes to one.
_UNDECODED_BYTE = re.compile("[\udc80-\udcff]")


def _fold(text: str) -> str:
    """`text` lowercased, with each final sigma as a plain one: `lower()` depends
    on context only for `Σ`, so a text then folds the same whole as in pieces."""
    return text.lower().replace("ς", "σ")


class Gazetteer:
    """Case-insensitive surface-form lookup with entity categories.

    File format: one entry per line, `surface<TAB>major<TAB>minor`.

    `Gazetteer(entries)` is the one constructor. It folds each surface with
    `_fold` (a later surface wins over an earlier one that folds the same),
    rejects an empty one, shares one tuple among the entries of a category,
    and derives from the entries:
    - `max_tokens`, the most text tokens a match can span (at least 1): each
      token a surface scans to counts 1, and a URL token its length in
      characters, as a text's tokens can end anywhere inside a URL of its
      fold (`\u212aab://x`, with a Kelvin sign, is five tokens, its fold one);
    - `prefixes`, which maps every place where `gazetteer_lookup` can end a
      probe to its entry, or to None when it is not itself a surface: the
      prefix up to each token end of each surface, and up to each character
      of a URL token in it. A text's token ends are token ends of its fold,
      except inside a URL of the fold: of the characters that folding changes,
      only U+0130 changes a token class (its fold `i\u0307` splits a token,
      and no URL scheme holds U+0307), and only the Kelvin sign folds to an
      ASCII letter (`k`, which can begin a URL scheme). With the token ends
      alone, `\u212aab://x` would never match `kab://x`.
    The whole costs about 200 bytes an entry (0.44 MB for 2,000 entries of
    8.5 characters on average, `tracemalloc`, CPython 3.11).
    Replace the Gazetteer rather than editing `entries` in place.
    """

    def __init__(self, entries: Mapping[str, tuple[str, str]]):
        self.entries: dict[str, tuple[str, str]] = {}
        self.max_tokens = 1
        self.prefixes: dict[str, tuple[str, str] | None] = {}
        categories: dict[tuple[str, str], tuple[str, str]] = {}
        for surface, (major, minor) in entries.items():
            surface = _fold(surface)
            if not surface:
                raise ValueError("empty gazetteer surface form")
            category = (major, minor)
            self.entries[surface] = categories.setdefault(category, category)
            tokens = 0
            for type, start, end, _ in _tokenize(surface):
                if type == URL:
                    tokens += end - start
                    for inside in range(start + 1, end):
                        self.prefixes.setdefault(surface[:inside], None)
                else:
                    tokens += 1
                self.prefixes.setdefault(surface[:end], None)
            self.max_tokens = max(self.max_tokens, tokens)
        self.prefixes.update(self.entries)

    @classmethod
    def from_entries(cls, entries: Mapping[str, tuple[str, str]]) -> "Gazetteer":
        """`Gazetteer(entries)`, under the name that callers of the first version use."""
        return cls(entries)

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        entries = {}
        # One tuple, and one pair of strings, per category while the file is read.
        categories: dict[tuple[str, str], tuple[str, str]] = {}
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if _UNDECODED_BYTE.search(line):
                    raise ValueError(f"{str(path)!r:.40}:{line_no}: not UTF-8")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{str(path)!r:.40}:{line_no}: expected surface<TAB>major<TAB>minor")
                category = (parts[1], parts[2])
                entries[parts[0]] = categories.setdefault(category, category)
        return cls(entries)


class _LowerEachSlice:
    """A text whose slices come out folded one by one, for a text whose fold
    is longer than itself (a U+0130 lowercases to two characters), so that
    the offsets of the text no longer point into its fold."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __getitem__(self, key: slice) -> str:
        return _fold(self.text[key])


def gazetteer_lookup(doc: Document, tokens: Sequence[Span], gazetteer: Gazetteer) -> list[Span]:
    """One Lookup span per maximal gazetteer match over consecutive tokens.

    `tokens` are spans sorted by start with non-decreasing ends, as the
    tokenizer yields them. Candidate surfaces are the raw document text
    spanning the token run, folded as the surfaces are: the document is folded
    once, unless that lengthens it, when each candidate is folded on its own.
    Longest match wins; ties break leftmost; matched tokens are consumed so
    lookups never overlap.

    A run grows one token at a time, up to `max_tokens` of them, and stops as
    soon as the candidate is no key of `prefixes`, so a token that starts no
    surface costs one probe. Every candidate ends at a token end of the text,
    so `prefixes` holds only the places of a surface where one can end.
    """
    text = _fold(doc.text)
    if len(text) != len(doc.text):
        text = _LowerEachSlice(doc.text)
    prefixes = gazetteer.prefixes
    not_a_prefix = _NOT_A_PREFIX
    lookups: list[Span] = []
    i = 0
    n = len(tokens)
    while i < n:
        _, start, end, _ = tokens[i]
        entry = prefixes.get(text[start:end], not_a_prefix)
        if entry is not_a_prefix:
            i += 1
            continue
        last = i
        for j in range(i + 1, min(i + gazetteer.max_tokens, n)):
            longer = prefixes.get(text[start:tokens[j][2]], not_a_prefix)
            if longer is not_a_prefix:
                break
            if longer is not None:
                entry, last = longer, j
        if entry is None:
            i += 1
            continue
        major, minor = entry
        lookups.append((LOOKUP, start, tokens[last][2], {"major_type": major, "minor_type": minor}))
        i = last + 1
    return lookups


def _scheme_before(piece: str, lo: int) -> tuple[int, int]:
    """`(start, colon)`: the first `://` of `piece` at or after `lo`, and the
    start of the run of scheme characters that ends at it, not before `lo`;
    `(len(piece), len(piece))` when there is none."""
    colon = piece.find("://", lo)
    if colon < 0:
        return len(piece), len(piece)
    return lo + len(piece[lo:colon].rstrip(_SCHEME_CHARS)), colon


def _scan(piece: str, offset: int, append: Callable[[Span], object]) -> None:
    """Append the spans of `piece`, which starts at `offset` of its text.

    A match of `_ATOM_RE` that starts with an ASCII letter inside the scheme
    run before the next `://` begins a URL, which runs to the next whitespace;
    no other match can begin one. Each `://` is found once and its scheme run
    is read once, so a piece costs time linear in its length."""
    types = _ATOM_TYPE
    scheme, colon = _scheme_before(piece, 0)
    pos = 0
    while pos < len(piece):
        # A piece that holds a "://" most often starts with its URL, which needs no match.
        if pos == scheme and piece[pos] in _SCHEME_FIRST:
            start = pos
        else:
            for match in _ATOM_RE.finditer(piece, pos):
                start = match.start()
                if start >= scheme:
                    if start >= colon:  # the ':' of a "://" that began no URL
                        scheme, colon = _scheme_before(piece, colon + 3)
                    elif piece[start] in _SCHEME_FIRST:
                        break
                append((types[match.lastindex], offset + start, offset + match.end(), None))
            else:
                return
        pos = _NON_SPACE_RUN.match(piece, colon + 3).end()
        append((URL, offset + start, offset + pos, None))
        scheme, colon = _scheme_before(piece, pos)


def _tokenize(text: str) -> list[Span]:
    """The token spans of `text` (Token, Hashtag, Mention, URL), in text order.

    No span holds whitespace, so the text is split on " " and each piece is
    tokenized on its own: an alphanumeric piece is one Token, `#` or `@`
    followed by one is a Hashtag or a Mention, and any other piece, which may
    still hold other whitespace, goes through `_scan`."""
    spans: list[Span] = []
    append = spans.append
    start = 0
    for piece in text.split(" "):
        end = start + len(piece)
        if piece.isalnum():
            append((TOKEN, start, end, None))
        elif piece:
            first = piece[0]
            if first in "#@" and piece[1:].isalnum():
                append((HASHTAG if first == "#" else MENTION, start, end, None))
            else:
                _scan(piece, start, append)
        start = end + 1
    return spans


def run_pipeline(doc: Document, gazetteer: Gazetteer | None = None) -> AnnotatedDocument:
    """The document's tokens, then the gazetteer's lookups when one is given;
    ids are dense in that order, so fixed inputs always yield the same ids."""
    # Token spans lie inside the text by construction, so add()'s check is
    # skipped; they are disjoint and in text order, as gazetteer_lookup wants.
    adoc = AnnotatedDocument(doc)
    spans = adoc._spans = _tokenize(doc.text)
    if gazetteer is not None:
        spans.extend(gazetteer_lookup(doc, spans, gazetteer))
    return adoc
