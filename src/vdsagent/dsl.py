"""A small declarative language for dispatch models.

Programs name a model, fix the objective, and list constraint statements;
see GRAMMAR below.  Comments run from '#' to end of line.  `remove_edge`
and `forbid_edge` are directional: a bidirectional closure takes two
statements.

One regex match per token turns the text into (kind, text, offset)
tuples; each match also takes the whitespace and comments before its
token, and the offset is the token's index in the text.  No token
carries a line or column: a DslError works them out from the offset
when it is raised.

`parse` keeps a process-wide memo of the last PARSE_MEMO_SIZE texts it
parsed, because the same program text is parsed again and again: a
suite sends one program text for every instance of a scenario kind,
and every stored exemplar is checked again on append and on load.
Sharing one AST between callers is safe because the AST is immutable
(frozen dataclasses holding tuples).  The memo holds at most
PARSE_MEMO_SIZE texts and their ASTs, so its memory is bounded by that
many times the largest program text.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Union

from .errors import VdsAgentError

GRAMMAR = """\
program     := "model" IDENT objective constraints
objective   := "objective" "minimize" "total_travel_time"
constraints := "constraints" "{" stmt* "}"
stmt        := "flow_balance" "all"
             | "remove_edge" "(" INT "," INT ")"
             | "forbid_edge" subject "(" INT "," INT ")"
             | "require_subpath" subject "[" INT ("," INT)+ "]"
             | "require_exact_path" subject "[" INT ("," INT)+ "]"
subject     := "vehicle" STRING | "task" STRING"""

FENCE_TAG = "vds-dsl"

OBJECTIVE = "total_travel_time"

# Longest integer literal accepted: the lowest int-from-string limit any
# interpreter setting allows (sys.int_info.str_digits_check_threshold),
# so the bound holds even where that limit is switched off.
MAX_INT_DIGITS = 640

# Distinct program texts `parse` remembers.  A suite parses a handful of
# distinct texts (three for the golden suite, five with the ablation
# script), so this leaves room for a knowledge base's own programs.
PARSE_MEMO_SIZE = 256


class DslError(VdsAgentError):
    """A parse or static-check failure, with source position when known."""

    def __init__(self, kind: str, message: str,
                 line: int | None = None, column: int | None = None):
        self.kind = kind
        self.message = message
        self.line = line
        self.column = column
        super().__init__(str(self))

    def __str__(self) -> str:
        if self.line is not None:
            return f"{self.kind} error at line {self.line}, column {self.column}: {self.message}"
        return f"{self.kind} error: {self.message}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DslError):
            return NotImplemented
        return (self.kind, self.message, self.line, self.column) == \
               (other.kind, other.message, other.line, other.column)

    def __hash__(self) -> int:
        return hash((self.kind, self.message, self.line, self.column))


class ExtractionError(VdsAgentError):
    """The completion contains no fenced program block."""


@dataclass(frozen=True)
class SubjectRef:
    kind: str  # "vehicle" | "task"
    ident: str

    def render(self) -> str:
        return f'{self.kind} "{self.ident}"'


@dataclass(frozen=True)
class FlowBalanceAll:
    def render(self) -> str:
        return "flow_balance all"


@dataclass(frozen=True)
class RemoveEdge:
    source: int
    target: int

    def render(self) -> str:
        return f"remove_edge ({self.source}, {self.target})"


@dataclass(frozen=True)
class ForbidEdge:
    subject: SubjectRef
    source: int
    target: int

    def render(self) -> str:
        return f"forbid_edge {self.subject.render()} ({self.source}, {self.target})"


@dataclass(frozen=True)
class _PathStatement:
    keyword: ClassVar[str]
    subject: SubjectRef
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def render(self) -> str:
        seq = ", ".join(str(n) for n in self.nodes)
        return f"{self.keyword} {self.subject.render()} [{seq}]"


@dataclass(frozen=True)
class RequireSubpath(_PathStatement):
    keyword = "require_subpath"


@dataclass(frozen=True)
class RequireExactPath(_PathStatement):
    keyword = "require_exact_path"


Statement = Union[FlowBalanceAll, RemoveEdge, ForbidEdge,
                  RequireSubpath, RequireExactPath]

PATH_STATEMENTS = (RequireSubpath, RequireExactPath)


@dataclass(frozen=True)
class ModelAst:
    name: str
    statements: tuple[Statement, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", tuple(self.statements))


_TOKEN_RE = re.compile(
    r"""(?P<skip>(?:[ \t\r\n]+ | \#[^\n]*)*)
        (?: (?P<int>\d+)
          | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
          | "(?P<string>[^"\n]*)"
          | (?P<punct>[()\[\]{},])
          | (?P<eof>\Z)
          | (?P<bad>.)
        )
    """,
    re.VERBOSE | re.DOTALL,
)

_PATH_KEYWORDS = {cls.keyword: cls for cls in PATH_STATEMENTS}


def _parse_error(text: str, offset: int, message: str) -> DslError:
    return DslError("parse", message, text.count("\n", 0, offset) + 1,
                    offset - text.rfind("\n", 0, offset))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []  # kind, text, offset
        for match in _TOKEN_RE.finditer(text):
            kind = match.lastgroup
            if kind == "bad":
                raise _parse_error(text, match.end("skip"),
                                   f"unexpected character {match[kind]!r}")
            self.tokens.append((kind, match[kind], match.end("skip")))
            if kind == "eof":
                break
        self.pos = 0

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: tuple[str, str, int]) -> DslError:
        kind, value, offset = tok
        shown = "end of input" if kind == "eof" else repr(value)
        return _parse_error(self.text, offset, f"{message}, got {shown}")

    def expect(self, kind: str, value: str | None = None,
               message: str | None = None) -> str:
        tok = self.next()
        if tok[0] != kind or value is not None and tok[1] != value:
            raise self.fail(message or f"expected '{value}'", tok)
        return tok[1]

    def expect_int(self) -> int:
        kind, digits, offset = tok = self.next()
        if kind != "int":
            raise self.fail("expected an integer", tok)
        if len(digits) > MAX_INT_DIGITS:
            raise _parse_error(self.text, offset, f"integer literal of "
                               f"{len(digits)} digits is too long")
        return int(digits)

    def parse_program(self) -> ModelAst:
        self.expect("ident", "model")
        name = self.expect("ident", None, "expected a model name")
        self.expect("ident", "objective")
        self.expect("ident", "minimize")
        self.expect("ident", OBJECTIVE)
        self.expect("ident", "constraints")
        self.expect("punct", "{")
        statements: list[Statement] = []
        while (tok := self.tokens[self.pos])[:2] != ("punct", "}"):
            if tok[0] == "eof":
                raise self.fail("expected a statement or '}'", tok)
            statements.append(self.parse_statement())
        self.pos += 1
        self.expect("eof", None, "expected end of input")
        return ModelAst(name=name, statements=tuple(statements))

    def parse_statement(self) -> Statement:
        kind, word, _ = tok = self.next()
        if kind == "ident":
            if word == "flow_balance":
                self.expect("ident", "all")
                return FlowBalanceAll()
            if word == "remove_edge":
                return RemoveEdge(*self.parse_edge_pair())
            if word == "forbid_edge":
                return ForbidEdge(self.parse_subject(), *self.parse_edge_pair())
            if word in _PATH_KEYWORDS:
                return _PATH_KEYWORDS[word](self.parse_subject(),
                                            self.parse_node_list())
        raise self.fail("expected a statement keyword", tok)

    def parse_subject(self) -> SubjectRef:
        tok = self.next()
        if tok[0] != "ident" or tok[1] not in ("vehicle", "task"):
            raise self.fail("expected 'vehicle' or 'task'", tok)
        return SubjectRef(kind=tok[1], ident=self.expect(
            "string", None, "expected a quoted identifier"))

    def parse_edge_pair(self) -> tuple[int, int]:
        self.expect("punct", "(")
        source = self.expect_int()
        self.expect("punct", ",")
        target = self.expect_int()
        self.expect("punct", ")")
        return source, target

    def parse_node_list(self) -> tuple[int, ...]:
        self.expect("punct", "[")
        nodes = [self.expect_int()]
        self.expect("punct", ",")
        nodes.append(self.expect_int())
        while self.tokens[self.pos][:2] == ("punct", ","):
            self.pos += 1
            nodes.append(self.expect_int())
        self.expect("punct", "]")
        return tuple(nodes)


def parse(text: str) -> ModelAst:
    """Parse program text; raises DslError (kind 'parse') with position.

    An equal text parsed before returns the same AST object, which is
    safe to share because the AST is immutable.  The memo keeps the
    last PARSE_MEMO_SIZE texts that parsed, so it holds at most that
    many times the largest program text; a text that fails is not kept
    and raises a fresh DslError each time.
    """
    return _parse(text)


@lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse(text: str) -> ModelAst:
    return _Parser(text).parse_program()


def static_check(ast: ModelAst) -> list[DslError]:
    """Environment-independent well-formedness checks.

    Returns an empty list when the program is clean; the error order is
    deterministic (scan order of the statement list).
    """
    errors: list[DslError] = []
    balance = sum(1 for s in ast.statements if isinstance(s, FlowBalanceAll))
    if balance == 0:
        errors.append(DslError("static", "missing required statement 'flow_balance all'"))
    elif balance > 1:
        errors.append(DslError("static", "duplicate 'flow_balance all' statement"))
    seen_removals: set[tuple[int, int]] = set()
    for stmt in ast.statements:
        if isinstance(stmt, RemoveEdge):
            key = (stmt.source, stmt.target)
            if key in seen_removals:
                errors.append(DslError(
                    "static", f"duplicate remove_edge ({stmt.source}, {stmt.target})"))
            seen_removals.add(key)
    by_subject: dict[tuple[str, str], list[Statement]] = {}
    for stmt in ast.statements:
        if isinstance(stmt, PATH_STATEMENTS):
            key = (stmt.subject.kind, stmt.subject.ident)
            by_subject.setdefault(key, []).append(stmt)
    for (kind, ident), stmts in by_subject.items():
        kinds = {type(s) for s in stmts}
        if len(kinds) > 1:
            errors.append(DslError(
                "static",
                f'conflicting path requirements for {kind} "{ident}"'))
        elif len(stmts) > 1:
            errors.append(DslError(
                "static",
                f'multiple path requirements for {kind} "{ident}"'))
    return errors


def render(ast: ModelAst) -> str:
    """Canonical text for an AST; parse(render(ast)) == ast.  The
    objective line is always OBJECTIVE, the only one the grammar has."""
    lines = [f"model {ast.name}",
             f"objective minimize {OBJECTIVE}",
             "constraints {"]
    for stmt in ast.statements:
        lines.append("  " + stmt.render())
    lines.append("}")
    return "\n".join(lines) + "\n"


_FENCE_RE = re.compile(r"```" + FENCE_TAG + r"[ \t]*\r?\n(.*?)```",
                       re.DOTALL)


def fenced(program: str) -> str:
    """`program` in the fenced block that `extract_dsl_block` reads."""
    return f"```{FENCE_TAG}\n{program}\n```"


def extract_dsl_block(text: str) -> str:
    """Return the last fenced ```vds-dsl block from a completion."""
    matches = _FENCE_RE.findall(text)
    if not matches:
        raise ExtractionError(f"no fenced {FENCE_TAG} block in completion")
    return matches[-1]
