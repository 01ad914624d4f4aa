"""Knowledge base of modeling primitives and worked exemplars.

Primitives are markdown files with YAML front-matter (id, category,
title); exemplars are one-JSON-file-per-entry so accumulated knowledge
stays reviewable.  Retrieval is lexical BM25 (k1=1.2, b=0.75) over the
lowercased, punctuation-split text of description + program.  A query is
a set of terms, not text (`query_terms`).  A base keeps an inverted index
(term -> documents and occurrences), built on its first retrieval and
extended by appends, so a query reads only the postings of its own terms
(Zobel & Moffat 2006).  The index holds each distinct document once, keyed
by (description, program), with the exemplars that copy it: BM25 scores a
document from its term counts alone, so every copy gets the same score,
computed once, and retrieval ranks documents, then the copies of those
that reach the k-th best copy's score.  Copies still count in N, document
frequency and average length, so scores are those of scoring every
exemplar.

BM25 statistics (N, document frequency, average length) are computed
over the matching subset only (documents sharing at least one query
term): corpus-global statistics let a zero-overlap document reorder
existing results, which retrieval here must never do.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, Collection, Iterable, Sequence

import yaml

from . import dsl
from .env import TerminalEnv, check_unique, env_digest, tokenize
from .errors import ValidationError
from .files import read_json, read_text, write_json

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
    """A worked example.  `env_digest` is the environment text its prompt
    showed (`env.env_digest`: the full digest, or an excerpt on a large
    yard); retrieval never reads it, prompts render it under
    "Environment:"."""

    id: str
    description: str
    env_digest: str
    program: str

    def document(self) -> str:
        return self.description + "\n" + self.program


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
        # in prompt order: by category, then id
        self.primitives: tuple[Primitive, ...] = tuple(sorted(
            primitives,
            key=lambda p: (PRIMITIVE_CATEGORIES.index(p.category), p.id)))
        self._exemplars: list[Exemplar] = list(exemplars)
        self.root = root
        check_unique([p.id for p in self.primitives], "primitive",
                     ValidationError)
        check_unique([e.id for e in self._exemplars], "exemplar",
                     ValidationError)
        self._ids = {e.id for e in self._exemplars}
        self._index: Index | None = None  # built by the first retrieval

    @property
    def exemplars(self) -> tuple[Exemplar, ...]:
        return tuple(self._exemplars)

    def snapshot(self) -> "KnowledgeBase":
        """Detached copy; later accumulation does not touch it."""
        return KnowledgeBase(self.primitives, self._exemplars, root=None)

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
            self._index.add(ex)

    def next_exemplar_id(self) -> str:
        n = len(self._exemplars) + 1
        while f"{ACCUMULATED_ID_PREFIX}-{n:04d}" in self._ids:
            n += 1
        return f"{ACCUMULATED_ID_PREFIX}-{n:04d}"

    @property
    def index(self) -> Index:
        """The exemplars' `Index`, built on first use, extended by appends."""
        if self._index is None:
            index = Index()
            for ex in self._exemplars:
                index.add(ex)
            self._index = index  # published whole: readers see no partial one
        return self._index


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
    files: dict[str, str] = {}  # primitive id -> name of its first file
    for md in sorted((root / "primitives").glob("*.md")):
        meta, body = _parse_front_matter(
            read_text(md, md.name, ValidationError), md.name)
        for key in ("id", "category", "title"):
            if not isinstance(meta.get(key), str):
                raise ValidationError(f"{md.name}: front-matter needs '{key}'")
        first = files.setdefault(meta["id"], md.name)
        if first != md.name:
            raise ValidationError(f"{md.name}: duplicate primitive id "
                                  f"{meta['id']}, also in {first}")
        primitives.append(Primitive(id=meta["id"], category=meta["category"],
                                    title=meta["title"], body=body))
    exemplars = []
    exdir = root / "exemplars"
    if exdir.is_dir():
        for jf in sorted(exdir.glob("*.json")):
            data = read_json(read_text(jf, jf.name, ValidationError), jf.name,
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


class Index:
    """Inverted index over distinct documents, each with the exemplars
    that copy it.

    N, document frequency and average length count every copy, so a
    document's score is the one each of its copies gets when every
    exemplar is scored on its own.
    """

    def __init__(self) -> None:
        # term -> [ascending document numbers, occurrences, copies holding it]
        self.postings: dict[str, list[Any]] = {}
        self.lengths: list[int] = []  # tokens per document
        self.copies: list[list[Exemplar]] = []  # per document, in add order
        self._entries: list[list[list[Any]]] = []  # each document's postings
        self._numbers: dict[tuple[str, str], int] = {}  # number by key

    def add(self, ex: Exemplar) -> None:
        """Add `ex` as one more copy of its (description, program); its
        `document()` is tokenized only when that document is not yet held."""
        key = (ex.description, ex.program)
        doc = self._numbers.get(key)
        if doc is None:
            doc = self._numbers[key] = len(self.lengths)
            term_counts = Counter(tokenize(ex.document()))
            self.lengths.append(sum(term_counts.values()))
            self.copies.append([])
            entries = []
            for term, freq in term_counts.items():
                entry = self.postings.get(term)
                if entry is None:
                    entry = self.postings[term] = [[], [], 0]
                entry[0].append(doc)
                entry[1].append(freq)
                entries.append(entry)
            self._entries.append(entries)
        self.copies[doc].append(ex)
        for entry in self._entries[doc]:
            entry[2] += 1

    def bm25(self, query_terms: Iterable[str]) -> list[float]:
        """Okapi BM25 of every document, in add order, with
        idf = ln(1 + (N - n + 0.5)/(n + 0.5)).

        Duplicate query terms count once.  All statistics are taken over
        the copies that share at least one query term; other documents
        score 0 and cannot influence the rest.  Scores are summed
        term-at-a-time in sorted term order.
        """
        postings = self.postings
        hits = [postings[t] for t in sorted(postings.keys() & query_terms)]
        lengths = self.lengths
        scores = [0.0] * len(lengths)
        if not hits:
            return scores
        matching = set().union(*(docs for docs, _, _ in hits))
        copies = self.copies
        n_docs = tokens = 0
        for d in matching:
            held = len(copies[d])
            n_docs += held
            tokens += lengths[d] * held
        avgdl = tokens / n_docs
        scale = [0.0] * len(lengths)  # read for matching documents only
        for d in matching:
            scale[d] = BM25_K1 * (1.0 - BM25_B + BM25_B * lengths[d] / avgdl)
        k1_plus_1 = BM25_K1 + 1.0
        for docs, freqs, n in hits:
            idf = math.log(1.0 + (n_docs - n + 0.5) / (n + 0.5))
            for d, freq in zip(docs, freqs):
                scores[d] += idf * freq * k1_plus_1 / (freq + scale[d])
        return scores


def query_terms(env: TerminalEnv) -> set[str]:
    """`set(tokenize(...))` of the newline-joined requirement texts and the
    full digest (`env.network.digest`, a newline, `env.fleet.digest`), from
    the digest terms cached on network and fleet.

    This is the full digest even where `env_digest(env)` is an excerpt, so
    which exemplars a transfer retrieves, and their scores, do not depend
    on the excerpt rule."""
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
    primitives = kb.primitives
    if k == 0:
        return RetrievedContext(primitives=primitives, exemplars=(), scores=())
    index = kb.index
    scores = index.bm25(terms)
    # documents best-first until they hold the k-th best copy (a stable
    # sort: documents that tie, such as all those that score 0, keep add
    # order)
    top: list[tuple[float, Exemplar]] = []
    for d in sorted(range(len(scores)), key=scores.__getitem__, reverse=True):
        score = scores[d]
        if len(top) >= k and score < top[-1][0]:
            break  # the k-th best copy and all tied with it are held
        top += [(score, ex) for ex in index.copies[d]]
    top = sorted(top, key=lambda pair: (-pair[0], pair[1].id))[:k]
    return RetrievedContext(
        primitives=primitives,
        exemplars=tuple(ex for _, ex in top),
        scores=tuple(score for score, _ in top),
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
