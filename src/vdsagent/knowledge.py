"""Knowledge base of modeling primitives and worked exemplars.

Primitives are markdown files with YAML front-matter (id, category,
title); exemplars are one-JSON-file-per-entry so accumulated knowledge
stays reviewable.  Retrieval is lexical BM25 (k1=1.2, b=0.75) over the
lowercased, punctuation-split text of description + program.  A query is
a set of terms, not text (`query_terms`).  A base keeps an inverted index
(term -> documents and occurrences), built on its first retrieval and
extended by appends, so a query reads only the postings of its own terms
(Zobel & Moffat 2006).  The index holds each distinct document once, keyed
by (description, program), with a count of the exemplars that copy it:
BM25 scores a document from its term counts alone, so every copy gets the
same score, computed once.  Copies still count in N, document frequency
and average length, so scores are those of scoring every exemplar.

BM25 statistics (N, document frequency, average length) are computed
over the matching subset only (documents sharing at least one query
term): corpus-global statistics let a zero-overlap document reorder
existing results, which retrieval here must never do.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial
from pathlib import Path
from typing import (Any, Callable, Collection, Hashable, Iterable, Mapping,
                    Sequence)

import yaml

from . import dsl
from .env import TerminalEnv, env_digest, tokenize
from .errors import ValidationError
from .files import read_json, write_json

PRIMITIVE_CATEGORIES = ("variable_definition", "constraint_formulation",
                        "objective_function")

BM25_K1 = 1.2
BM25_B = 0.75

# Exemplar ids name their file, so they must be a plain file stem.
_EXEMPLAR_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")
ACCUMULATED_ID_PREFIX = "acc"  # accumulated ids: acc-0001, acc-0002, ...

@dataclass(frozen=True)
class Primitive:
    id: str
    category: str
    title: str
    body: str

    def __post_init__(self) -> None:
        if self.category not in PRIMITIVE_CATEGORIES:
            raise ValidationError(
                f"primitive {self.id}: unknown category '{self.category}'")


@dataclass(frozen=True)
class Exemplar:
    id: str
    description: str
    env_digest: str
    program: str

    def document(self) -> str:
        return self.description + "\n" + self.program

    @cached_property
    def term_counts(self) -> Mapping[str, int]:
        """Occurrences of each token of `document()`, computed once."""
        return Counter(tokenize(self.document()))


@dataclass(frozen=True)
class RetrievedContext:
    primitives: tuple[Primitive, ...]
    exemplars: tuple[Exemplar, ...]
    scores: tuple[float, ...]


def validate_exemplar(ex: Exemplar) -> None:
    """Raise ValidationError unless the exemplar is usable as a shot."""
    if not isinstance(ex.id, str) or not _EXEMPLAR_ID_RE.fullmatch(ex.id):
        raise ValidationError(
            f"exemplar id {ex.id!r} is not a safe file name: a string of "
            f"letters, digits, '.', '_' and '-' that starts with a letter "
            f"or digit")
    for name in ("description", "env_digest", "program"):
        if not isinstance(getattr(ex, name), str):
            raise ValidationError(
                f"exemplar {ex.id}: needs string field '{name}'")
    if not ex.description.strip():
        raise ValidationError(f"exemplar {ex.id}: empty description")
    try:
        ast = dsl.parse(ex.program)
    except dsl.DslError as exc:
        raise ValidationError(f"exemplar {ex.id}: program does not parse "
                              f"({exc})") from exc
    problems = dsl.static_check(ast)
    if problems:
        raise ValidationError(
            f"exemplar {ex.id}: program fails static checks ({problems[0]})")


class KnowledgeBase:
    """Append-only store.  Single writer; reads may overlap reads only."""

    def __init__(self, primitives: Sequence[Primitive] = (),
                 exemplars: Sequence[Exemplar] = (),
                 root: Path | None = None):
        self._primitives: list[Primitive] = list(primitives)
        self._exemplars: list[Exemplar] = list(exemplars)
        self.root = root
        ids = [p.id for p in self._primitives]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate primitive ids")
        self._ids = {e.id for e in self._exemplars}
        if len(self._ids) != len(self._exemplars):
            raise ValidationError("duplicate exemplar ids")
        self._index: Index | None = None  # built by the first retrieval

    @property
    def primitives(self) -> tuple[Primitive, ...]:
        return tuple(self._primitives)

    @property
    def exemplars(self) -> tuple[Exemplar, ...]:
        return tuple(self._exemplars)

    def snapshot(self) -> "KnowledgeBase":
        """Detached copy; later accumulation does not touch it."""
        return KnowledgeBase(self._primitives, self._exemplars, root=None)

    def append_exemplar(self, ex: Exemplar) -> None:
        """Validate, persist (when the base has a root), then publish: a
        failed write leaves the base as it was."""
        validate_exemplar(ex)
        if ex.id in self._ids:
            raise ValidationError(f"exemplar id {ex.id} already present")
        if self.root is not None:
            write_json(self.root / "exemplars" / f"{ex.id}.json", asdict(ex))
        self._exemplars.append(ex)
        self._ids.add(ex.id)
        if self._index is not None:
            _index_exemplar(self._index, ex)

    def next_exemplar_id(self) -> str:
        n = len(self._exemplars) + 1
        while f"{ACCUMULATED_ID_PREFIX}-{n:04d}" in self._ids:
            n += 1
        return f"{ACCUMULATED_ID_PREFIX}-{n:04d}"

    def bm25_scores(self, query_terms: Iterable[str]) -> list[float]:
        """`bm25_scores` of every exemplar, in store order."""
        if self._index is None:
            index = Index()
            for ex in self._exemplars:
                _index_exemplar(index, ex)
            self._index = index  # published whole: readers see no partial one
        return self._index.bm25(query_terms)


def _index_exemplar(index: Index, ex: Exemplar) -> None:
    index.add((ex.description, ex.program), lambda: ex.term_counts)


def _parse_front_matter(text: str, where: str) -> tuple[dict[str, Any], str]:
    lines = text.split("\n")
    if not lines or lines[0].strip() != "---":
        raise ValidationError(f"{where}: missing front-matter")
    try:
        end = next(i for i in range(1, len(lines)) if lines[i].strip() == "---")
    except StopIteration:
        raise ValidationError(f"{where}: unterminated front-matter") from None
    try:
        meta = yaml.safe_load("\n".join(lines[1:end]))
    except yaml.YAMLError as exc:
        raise ValidationError(f"{where}: bad front-matter ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValidationError(f"{where}: front-matter must be a mapping")
    return meta, "\n".join(lines[end + 1:]).strip()


def load(path: str | Path) -> KnowledgeBase:
    """Load a knowledge base directory (primitives/*.md, exemplars/*.json)."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"knowledge base directory {root} not found")
    primitives = []
    for md in sorted((root / "primitives").glob("*.md")):
        meta, body = _parse_front_matter(md.read_text(encoding="utf-8"), md.name)
        for key in ("id", "category", "title"):
            if not isinstance(meta.get(key), str):
                raise ValidationError(f"{md.name}: front-matter needs '{key}'")
        primitives.append(Primitive(id=meta["id"], category=meta["category"],
                                    title=meta["title"], body=body))
    exemplars = []
    exdir = root / "exemplars"
    if exdir.is_dir():
        for jf in sorted(exdir.glob("*.json")):
            data = read_json(jf.read_text(encoding="utf-8"), jf.name,
                             ValidationError)
            ex = Exemplar(**{f.name: data.get(f.name)
                             for f in fields(Exemplar)})
            try:
                validate_exemplar(ex)
            except ValidationError as exc:
                raise ValidationError(f"{jf.name}: {exc}") from exc
            if ex.id != jf.stem:
                # a later append of id == stem would overwrite this file
                raise ValidationError(
                    f"{jf.name}: id '{ex.id}' does not match the file name")
            exemplars.append(ex)
    return KnowledgeBase(primitives, exemplars, root=root)


def seed_kb_path() -> Path:
    """Directory of the knowledge base shipped with the package."""
    return Path(__file__).parent / "data" / "seed_kb"


def load_seed_kb() -> KnowledgeBase:
    kb = load(seed_kb_path())
    kb.root = None  # keep the packaged seed read-only
    return kb


def bm25_scores(query_terms: list[str], documents: list[list[str]]) -> list[float]:
    """Okapi BM25 with idf = ln(1 + (N - n + 0.5)/(n + 0.5)).

    Duplicate query terms count once.  All statistics are taken over the
    documents that share at least one query term; zero-overlap documents
    score 0 and cannot influence the others.
    """
    index = Index()
    for doc in documents:
        index.add(tuple(doc), partial(Counter, doc))
    return index.bm25(query_terms)


class Index:
    """Inverted index over distinct documents; `add` takes one copy.

    N, document frequency and average length count every copy, so each
    document's score is the one the token-list form gives every copy.
    """

    def __init__(self) -> None:
        # term -> [ascending document numbers, occurrences, copies holding it]
        self.postings: dict[str, list[Any]] = {}
        self.lengths: list[int] = []  # tokens per document
        self.copies: list[int] = []  # copies per document
        self._tokens: list[int] = []  # tokens over all copies, per document
        self._entries: list[list[list[Any]]] = []  # each document's postings
        self._numbers: dict[Hashable, int] = {}  # key -> document number
        self.documents: list[int] = []  # each copy's document, in add order

    def add(self, key: Hashable,
            counts: Callable[[], Mapping[str, int]]) -> None:
        """Add one copy of the document `key`; `counts()` (its term
        occurrences) is called only for a document not yet held."""
        doc = self._numbers.get(key)
        if doc is None:
            doc = self._numbers[key] = len(self.lengths)
            term_counts = counts()
            self.lengths.append(sum(term_counts.values()))
            self.copies.append(0)
            self._tokens.append(0)
            entries = []
            for term, freq in term_counts.items():
                entry = self.postings.get(term)
                if entry is None:
                    entry = self.postings[term] = [[], [], 0]
                entry[0].append(doc)
                entry[1].append(freq)
                entries.append(entry)
            self._entries.append(entries)
        self.copies[doc] += 1
        self._tokens[doc] += self.lengths[doc]
        for entry in self._entries[doc]:
            entry[2] += 1
        self.documents.append(doc)

    def bm25(self, query_terms: Iterable[str]) -> list[float]:
        """`bm25_scores` of every copy, in add order: term-at-a-time in
        sorted term order, so each score is summed in the order and float
        expressions of the token-list form."""
        postings = self.postings
        hits = [postings[t] for t in sorted(postings.keys() & query_terms)]
        if not hits:
            return [0.0] * len(self.documents)
        matching = set().union(*(docs for docs, _, _ in hits))
        lengths = self.lengths
        # with one copy of each document, copy i is document i
        distinct = len(lengths) == len(self.documents)
        n_docs = (len(matching) if distinct
                  else sum(map(self.copies.__getitem__, matching)))
        avgdl = sum(map(self._tokens.__getitem__, matching)) / n_docs
        scale = {d: BM25_K1 * (1.0 - BM25_B + BM25_B * lengths[d] / avgdl)
                 for d in matching}
        k1_plus_1 = BM25_K1 + 1.0
        scores = [0.0] * len(lengths)
        for docs, freqs, n in hits:
            idf = math.log(1.0 + (n_docs - n + 0.5) / (n + 0.5))
            for d, freq in zip(docs, freqs):
                scores[d] += idf * freq * k1_plus_1 / (freq + scale[d])
        return (scores if distinct
                else list(map(scores.__getitem__, self.documents)))


def query_terms(env: TerminalEnv) -> set[str]:
    """`set(tokenize(...))` of the newline-joined requirement texts and
    `env_digest(env)`, from the digest terms cached on network and fleet."""
    return set(tokenize("\n".join(env.requirements.texts))).union(
        env.network.digest_terms, env.fleet.digest_terms)


def retrieve(kb: KnowledgeBase, terms: Collection[str],
             k: int) -> RetrievedContext:
    """Rank exemplars for query terms, such as `query_terms(env)` or
    `tokenize(text)` (a `str`, whose terms would be its characters, raises
    TypeError); primitives are always all included.

    Returns min(k, |exemplars|) exemplars ordered by score descending,
    ties broken by exemplar id.
    """
    if isinstance(terms, str):
        raise TypeError("retrieve takes terms: pass tokenize(text)")
    if k < 0:
        raise ValueError("k must be non-negative")
    primitives = tuple(sorted(
        kb.primitives,
        key=lambda p: (PRIMITIVE_CATEGORIES.index(p.category), p.id)))
    exemplars = kb.exemplars
    if k == 0 or not exemplars:
        return RetrievedContext(primitives=primitives, exemplars=(), scores=())
    scores = kb.bm25_scores(terms)
    floor = heapq.nlargest(k, scores)[-1]  # the k-th best score
    top = sorted((i for i, score in enumerate(scores) if score >= floor),
                 key=lambda i: (-scores[i], exemplars[i].id))[:k]
    return RetrievedContext(
        primitives=primitives,
        exemplars=tuple(exemplars[i] for i in top),
        scores=tuple(scores[i] for i in top),
    )


def accumulate(kb: KnowledgeBase, env: TerminalEnv, program: str,
               description: str) -> KnowledgeBase:
    """Append a solved transfer as a new exemplar (validated, append-only).

    Persists to kb.root/exemplars/ when the base was loaded from disk.
    Returns the same (mutated) knowledge base for chaining.
    """
    ex = Exemplar(id=kb.next_exemplar_id(), description=description,
                  env_digest=env_digest(env), program=program)
    kb.append_exemplar(ex)
    return kb
