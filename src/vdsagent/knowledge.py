"""Knowledge base of modeling primitives and worked exemplars.

Primitives are markdown files with YAML front-matter (id, category,
title); exemplars are one-JSON-file-per-entry so accumulated knowledge
stays reviewable.  Retrieval is lexical BM25 (k1=1.2, b=0.75) over the
lowercased, punctuation-split text of description + program.  Each
exemplar tokenizes its text once and caches its term counts and token
count, so a retrieval costs one pass over the exemplars' term keys, not
one re-tokenization of the whole base.

BM25 statistics (N, document frequency, average length) are computed
over the matching subset only (documents sharing at least one query
term): corpus-global statistics let a zero-overlap document reorder
existing results, which retrieval here must never do.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Mapping, Sequence

import yaml

from . import dsl
from .env import TerminalEnv, env_digest
from .errors import ValidationError
from .files import atomic_write

PRIMITIVE_CATEGORIES = ("variable_definition", "constraint_formulation",
                        "objective_function")

BM25_K1 = 1.2
BM25_B = 0.75

_TOKEN_RE = re.compile(r"[a-z0-9]+")
# Exemplar ids name their file, so they must be a plain file stem.
_EXEMPLAR_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


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

    @cached_property
    def token_count(self) -> int:
        return sum(self.term_counts.values())


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
    """Append-only store.  Single writer; reads are safe to share."""

    def __init__(self, primitives: Sequence[Primitive] = (),
                 exemplars: Sequence[Exemplar] = (),
                 root: Path | None = None):
        self._primitives: list[Primitive] = list(primitives)
        self._exemplars: list[Exemplar] = list(exemplars)
        self.root = root
        ids = [p.id for p in self._primitives]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate primitive ids")
        ids = [e.id for e in self._exemplars]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate exemplar ids")

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
        validate_exemplar(ex)
        if any(e.id == ex.id for e in self._exemplars):
            raise ValidationError(f"exemplar id {ex.id} already present")
        self._exemplars.append(ex)
        if self.root is not None:
            payload = {"id": ex.id, "description": ex.description,
                       "env_digest": ex.env_digest, "program": ex.program}
            atomic_write(self.root / "exemplars" / f"{ex.id}.json",
                         json.dumps(payload, indent=2) + "\n")

    def next_exemplar_id(self, prefix: str = "acc") -> str:
        existing = {e.id for e in self._exemplars}
        n = len(self._exemplars) + 1
        while f"{prefix}-{n:04d}" in existing:
            n += 1
        return f"{prefix}-{n:04d}"


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
            try:
                data = json.loads(jf.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{jf.name}: invalid JSON ({exc})") from exc
            if not isinstance(data, dict):
                raise ValidationError(f"{jf.name}: expected a JSON object")
            for key in ("id", "description", "env_digest", "program"):
                if not isinstance(data.get(key), str):
                    raise ValidationError(f"{jf.name}: needs string field '{key}'")
            if data["id"] != jf.stem:
                # a later append of id == stem would overwrite this file
                raise ValidationError(
                    f"{jf.name}: id '{data['id']}' does not match the file name")
            ex = Exemplar(id=data["id"], description=data["description"],
                          env_digest=data["env_digest"], program=data["program"])
            validate_exemplar(ex)
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
    return _bm25_counted(query_terms,
                         [(Counter(doc), len(doc)) for doc in documents])


def _bm25_counted(query_terms: Sequence[str],
                  documents: Sequence[tuple[Mapping[str, int], int]]
                  ) -> list[float]:
    """`bm25_scores` over (term counts, token count) per document.

    Each score sums its terms in sorted order with the float expressions
    of the token-list form, so scores are bit-identical to re-counting
    every token list.
    """
    terms = sorted(set(query_terms))
    hits = [[t for t in terms if t in counts] for counts, _ in documents]
    matching = [i for i, found in enumerate(hits) if found]
    if not matching:
        return [0.0] * len(documents)
    n_docs = len(matching)
    avgdl = sum(documents[i][1] for i in matching) / n_docs
    df = Counter(t for i in matching for t in hits[i])
    idf = {t: math.log(1.0 + (n_docs - n + 0.5) / (n + 0.5))
           for t, n in df.items()}
    scores = []
    for (counts, length), found in zip(documents, hits):
        score = 0.0
        if found:
            scale = BM25_K1 * (1.0 - BM25_B + BM25_B * length / avgdl)
            for term in found:
                freq = counts[term]
                score += idf[term] * freq * (BM25_K1 + 1.0) / (freq + scale)
        scores.append(score)
    return scores


def retrieve(kb: KnowledgeBase, query: str, k: int) -> RetrievedContext:
    """Rank exemplars for a query; primitives are always all included.

    Returns min(k, |exemplars|) exemplars ordered by score descending,
    ties broken by exemplar id.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    primitives = tuple(sorted(
        kb.primitives,
        key=lambda p: (PRIMITIVE_CATEGORIES.index(p.category), p.id)))
    exemplars = kb.exemplars
    if k == 0 or not exemplars:
        return RetrievedContext(primitives=primitives, exemplars=(), scores=())
    scores = _bm25_counted(tokenize(query),
                           [(e.term_counts, e.token_count) for e in exemplars])
    top = heapq.nsmallest(k, range(len(exemplars)),
                          key=lambda i: (-scores[i], exemplars[i].id))
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
