"""Stand-off annotation pipeline: tokenizer, gazetteer lookup, span queries.

Document text is immutable; every annotator attaches typed spans with feature
maps instead of rewriting the text, so overlapping layers coexist and the
result can be traversed like a graph of spans. Offsets are Unicode scalar
indices (plain str indices), which survive re-serialization across encodings.

run_pipeline is the one annotator: it tokenizes a document, then adds a
gazetteer's lookups when one is given, handing out dense ids, tokens first, so
identical inputs always yield identical ids.

This is the per-document hot path of the pipeline, so run_pipeline appends
spans in bulk instead of one checked `add()` at a time, and to_json
formats each span directly rather than building a dict for json.dumps; the
output is byte-identical to json.dumps of the record.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Mapping, Sequence

TOKEN = "Token"
HASHTAG = "Hashtag"
MENTION = "Mention"
URL = "URL"
LOOKUP = "Lookup"

TOKEN_TYPES = (TOKEN, HASHTAG, MENTION, URL)

# One match per non-whitespace atom, tried in order: URLs before plain runs
# so scheme letters are not eaten as a Token, then #/@ forms, then
# alphanumeric runs, then any leftover character as one-char punctuation.
_SCAN_RE = re.compile(
    r"(?P<url>[A-Za-z][A-Za-z0-9+.-]*://\S*)"
    r"|(?P<hashtag>\#[^\W_]+)"
    r"|(?P<mention>@[^\W_]+)"
    r"|(?P<token>[^\W_]+)"
    r"|(?P<punct>\S)",
    re.UNICODE,
)

# Annotation type by group number (match.lastindex), in the groups' order above.
_INDEX_TYPE = (None, URL, HASHTAG, MENTION, TOKEN, TOKEN)

# to_json output equals json.dumps(record, ensure_ascii=False,
# separators=(",", ":")). Strings go through encode_basestring, the function
# that encoder applies to every str; feature maps whose keys or values are
# not all str go through the encoder itself.
_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class _TypeJson(dict):
    """JSON string of each built-in annotation type; others encoded per call."""

    def __missing__(self, type: str) -> str:
        return _ENCODER.encode(type)


_TYPE_JSON = _TypeJson((t, encode_basestring(t)) for t in (*TOKEN_TYPES, LOOKUP))


def _features_json(features: Mapping[str, object]) -> str:
    try:
        return "{%s}" % ",".join([
            f"{encode_basestring(key)}:{encode_basestring(value)}" for key, value in features.items()
        ])
    except TypeError:  # a key or value that is not a str
        return _ENCODER.encode(features)


@dataclass(frozen=True, slots=True)
class Document:
    doc_id: str
    text: str


@dataclass(slots=True)
class Annotation:
    ann_id: int
    type: str
    start: int
    end: int
    features: dict[str, str] = field(default_factory=dict)


class AnnotatedDocument:
    """A document plus its stand-off annotations, queryable by type and span."""

    def __init__(self, doc: Document):
        self.doc = doc
        self.annotations: list[Annotation] = []

    def add(self, type: str, start: int, end: int, features: dict[str, str] | None = None) -> Annotation:
        if not (0 <= start <= end <= len(self.doc.text)):
            raise ValueError(f"span [{start},{end}) outside text of length {len(self.doc.text)}")
        ann = Annotation(len(self.annotations), type, start, end, features or {})
        self.annotations.append(ann)
        return ann

    def covered_text(self, ann: Annotation) -> str:
        return self.doc.text[ann.start:ann.end]

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
        out = []
        for ann in self.annotations:
            if wanted is not None and ann.type not in wanted:
                continue
            if window is not None:
                if a == b:
                    if not (ann.start <= a < ann.end):
                        continue
                elif not (ann.start < b and a < ann.end):
                    continue
            out.append(ann)
        out.sort(key=lambda ann: (ann.start, ann.end, ann.ann_id))
        return out

    def to_json(self) -> str:
        """One JSON line: doc_id, text and every annotation in id order.

        Ids and offsets are formatted as ints, so they must be ints.
        """
        types = _TYPE_JSON
        spans = ",".join([
            f'{{"id":{a.ann_id},"type":{types[a.type]},"start":{a.start},"end":{a.end},'
            f'"features":{_features_json(a.features) if a.features else "{}"}}}'
            for a in self.annotations
        ])
        doc_id = _ENCODER.encode(self.doc.doc_id)
        return f'{{"doc_id":{doc_id},"text":{encode_basestring(self.doc.text)},"annotations":[{spans}]}}'

    @classmethod
    def from_json(cls, payload: str) -> "AnnotatedDocument":
        record = json.loads(payload)
        adoc = cls(Document(record["doc_id"], record["text"]))
        for item in record["annotations"]:
            ann = adoc.add(item["type"], item["start"], item["end"], dict(item["features"]))
            if ann.ann_id != item["id"]:
                raise ValueError(f"non-dense annotation id {item['id']}")
        return adoc


def token_spans(text: str) -> Iterable[tuple[str, int, int]]:
    """Yield (type, start, end) for every non-whitespace atom, left to right.

    The spans are disjoint and together cover exactly the non-whitespace
    positions of the text.
    """
    for match in _SCAN_RE.finditer(text):
        yield _INDEX_TYPE[match.lastindex], match.start(), match.end()


# Gazetteer.prefixes.get default: the candidate starts no surface.
_NOT_A_PREFIX = object()


@dataclass
class Gazetteer:
    """Case-insensitive surface-form lookup with entity categories.

    File format: one entry per line, `surface<TAB>major<TAB>minor`.

    `prefixes` maps every non-empty prefix of every surface to its entry, or
    to None when the prefix is not itself a surface. It is built from
    `entries` at construction; replace the Gazetteer rather than editing
    `entries` in place. It costs about 0.5 KB per entry (1 MB for 2,000
    entries of 8.5 characters on average).
    """

    entries: dict[str, tuple[str, str]]
    max_tokens: int = 1
    prefixes: dict[str, tuple[str, str] | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        prefixes: dict[str, tuple[str, str] | None] = {}
        for surface in self.entries:
            for end in range(1, len(surface)):
                prefixes.setdefault(surface[:end], None)
        prefixes.update(self.entries)
        self.prefixes = prefixes

    @classmethod
    def from_entries(cls, entries: Mapping[str, tuple[str, str]]) -> "Gazetteer":
        normalized = {}
        max_tokens = 1
        for surface, (major, minor) in entries.items():
            surface = surface.lower()
            if not surface:
                raise ValueError("empty gazetteer surface form")
            normalized[surface] = (major, minor)
            max_tokens = max(max_tokens, sum(1 for _ in token_spans(surface)))
        return cls(normalized, max_tokens)

    @classmethod
    def load(cls, path: str | Path) -> "Gazetteer":
        entries = {}
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line.strip():
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{line_no}: expected surface<TAB>major<TAB>minor")
                entries[parts[0]] = (parts[1], parts[2])
        return cls.from_entries(entries)


def gazetteer_lookup(doc: Document, tokens: Sequence[Annotation], gazetteer: Gazetteer) -> list[Annotation]:
    """One Lookup per maximal gazetteer match over consecutive tokens.

    `tokens` are sorted by start with non-decreasing ends, as the tokenizer
    yields them. Candidate surfaces are the raw document text spanning the
    token run, lowercased. Longest match wins; ties break leftmost; matched
    tokens are consumed so lookups never overlap.

    A run grows one token at a time and stops as soon as the candidate is no
    surface's prefix, so a token that starts no surface costs one probe.
    """
    text = doc.text.lower()
    prefixes = gazetteer.prefixes
    not_a_prefix = _NOT_A_PREFIX
    lookups: list[Annotation] = []
    i = 0
    n = len(tokens)
    while i < n:
        start = tokens[i].start
        entry = prefixes.get(text[start:tokens[i].end], not_a_prefix)
        if entry is not_a_prefix:
            i += 1
            continue
        last = i
        for j in range(i + 1, min(i + gazetteer.max_tokens, n)):
            longer = prefixes.get(text[start:tokens[j].end], not_a_prefix)
            if longer is not_a_prefix:
                break
            if longer is not None:
                entry, last = longer, j
        if entry is None:
            i += 1
            continue
        major, minor = entry
        features = {"major_type": major, "minor_type": minor}
        lookups.append(Annotation(len(lookups), LOOKUP, start, tokens[last].end, features))
        i = last + 1
    return lookups


def run_pipeline(doc: Document, gazetteer: Gazetteer | None = None) -> AnnotatedDocument:
    """The document's tokens, then the gazetteer's lookups when one is given;
    ids are dense in that order, so fixed inputs always yield the same ids."""
    # Regex spans lie inside the text by construction, so add()'s check is
    # skipped; they are disjoint and in text order, as gazetteer_lookup wants.
    index_type = _INDEX_TYPE
    adoc = AnnotatedDocument(doc)
    annotations = adoc.annotations
    annotations.extend([
        Annotation(ann_id, index_type[match.lastindex], match.start(), match.end(), {})
        for ann_id, match in enumerate(_SCAN_RE.finditer(doc.text))
    ])
    if gazetteer is not None:
        lookups = gazetteer_lookup(doc, annotations, gazetteer)
        for ann_id, ann in enumerate(lookups, len(annotations)):
            ann.ann_id = ann_id
        annotations.extend(lookups)
    return adoc
