"""A small declarative language for dispatch models.

Programs name a model, fix the objective, and list constraint statements;
see GRAMMAR below.  Comments run from '#' to end of line.  `remove_edge`
and `forbid_edge` are directional: a bidirectional closure takes two
statements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Union

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
class RequireSubpath:
    subject: SubjectRef
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def render(self) -> str:
        seq = ", ".join(str(n) for n in self.nodes)
        return f"require_subpath {self.subject.render()} [{seq}]"


@dataclass(frozen=True)
class RequireExactPath:
    subject: SubjectRef
    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))

    def render(self) -> str:
        seq = ", ".join(str(n) for n in self.nodes)
        return f"require_exact_path {self.subject.render()} [{seq}]"


Statement = Union[FlowBalanceAll, RemoveEdge, ForbidEdge,
                  RequireSubpath, RequireExactPath]

PATH_STATEMENTS = (RequireSubpath, RequireExactPath)


@dataclass(frozen=True)
class ModelAst:
    name: str
    statements: tuple[Statement, ...] = field(default_factory=tuple)
    objective: str = OBJECTIVE

    def __post_init__(self) -> None:
        object.__setattr__(self, "statements", tuple(self.statements))


@dataclass(frozen=True)
class _Token:
    type: str  # "ident" | "int" | "string" | "punct" | "eof"
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+)
      | (?P<comment>\#[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<string>"[^"\n]*")
      | (?P<punct>[()\[\]{},])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    line = 1
    col = 1
    n = len(text)
    while pos < n:
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DslError("parse", f"unexpected character {text[pos]!r}", line, col)
        kind = match.lastgroup
        value = match.group()
        if kind not in ("ws", "comment"):
            if kind == "string":
                yield _Token("string", value[1:-1], line, col)
            else:
                yield _Token(kind, value, line, col)
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = match.end()
    yield _Token("eof", "", line, col)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None) -> DslError:
        tok = tok or self.peek()
        shown = tok.value if tok.type != "eof" else "end of input"
        return DslError("parse", f"{message}, got {shown!r}" if tok.type != "eof"
                        else f"{message}, got end of input", tok.line, tok.column)

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.type != "ident" or tok.value != word:
            raise self.fail(f"expected '{word}'", tok)
        return tok

    def expect_punct(self, char: str) -> _Token:
        tok = self.next()
        if tok.type != "punct" or tok.value != char:
            raise self.fail(f"expected '{char}'", tok)
        return tok

    def expect_int(self) -> int:
        tok = self.next()
        if tok.type != "int":
            raise self.fail("expected an integer", tok)
        if len(tok.value) > MAX_INT_DIGITS:
            raise DslError("parse", f"integer literal of {len(tok.value)} "
                           f"digits is too long", tok.line, tok.column)
        return int(tok.value)

    def expect_string(self) -> str:
        tok = self.next()
        if tok.type != "string":
            raise self.fail("expected a quoted identifier", tok)
        return tok.value

    def parse_program(self) -> ModelAst:
        self.expect_keyword("model")
        name_tok = self.next()
        if name_tok.type != "ident":
            raise self.fail("expected a model name", name_tok)
        self.expect_keyword("objective")
        self.expect_keyword("minimize")
        obj_tok = self.next()
        if obj_tok.type != "ident" or obj_tok.value != OBJECTIVE:
            raise self.fail(f"expected '{OBJECTIVE}'", obj_tok)
        self.expect_keyword("constraints")
        self.expect_punct("{")
        statements: list[Statement] = []
        while True:
            tok = self.peek()
            if tok.type == "punct" and tok.value == "}":
                self.next()
                break
            if tok.type == "eof":
                raise self.fail("expected a statement or '}'", tok)
            statements.append(self.parse_statement())
        tail = self.next()
        if tail.type != "eof":
            raise self.fail("expected end of input", tail)
        return ModelAst(name=name_tok.value, statements=tuple(statements))

    def parse_statement(self) -> Statement:
        tok = self.next()
        if tok.type != "ident":
            raise self.fail("expected a statement keyword", tok)
        if tok.value == "flow_balance":
            self.expect_keyword("all")
            return FlowBalanceAll()
        if tok.value == "remove_edge":
            source, target = self.parse_edge_pair()
            return RemoveEdge(source, target)
        if tok.value == "forbid_edge":
            subject = self.parse_subject()
            source, target = self.parse_edge_pair()
            return ForbidEdge(subject, source, target)
        if tok.value == "require_subpath":
            subject = self.parse_subject()
            return RequireSubpath(subject, self.parse_node_list())
        if tok.value == "require_exact_path":
            subject = self.parse_subject()
            return RequireExactPath(subject, self.parse_node_list())
        raise self.fail("expected a statement keyword", tok)

    def parse_subject(self) -> SubjectRef:
        tok = self.next()
        if tok.type != "ident" or tok.value not in ("vehicle", "task"):
            raise self.fail("expected 'vehicle' or 'task'", tok)
        return SubjectRef(kind=tok.value, ident=self.expect_string())

    def parse_edge_pair(self) -> tuple[int, int]:
        self.expect_punct("(")
        source = self.expect_int()
        self.expect_punct(",")
        target = self.expect_int()
        self.expect_punct(")")
        return source, target

    def parse_node_list(self) -> tuple[int, ...]:
        self.expect_punct("[")
        nodes = [self.expect_int()]
        self.expect_punct(",")
        nodes.append(self.expect_int())
        while True:
            tok = self.peek()
            if tok.type == "punct" and tok.value == ",":
                self.next()
                nodes.append(self.expect_int())
            else:
                self.expect_punct("]")
                return tuple(nodes)


def parse(text: str) -> ModelAst:
    """Parse program text; raises DslError (kind 'parse') with position."""
    return _Parser(text).parse_program()


def static_check(ast: ModelAst) -> list[DslError]:
    """Environment-independent well-formedness checks.

    Returns an empty list when the program is clean; the error order is
    deterministic (scan order of the statement list).
    """
    errors: list[DslError] = []
    if ast.objective != OBJECTIVE:
        errors.append(DslError("static", f"objective must be '{OBJECTIVE}'"))
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
    """Canonical text for an AST; parse(render(ast)) == ast."""
    lines = [f"model {ast.name}",
             f"objective minimize {ast.objective}",
             "constraints {"]
    for stmt in ast.statements:
        lines.append("  " + stmt.render())
    lines.append("}")
    return "\n".join(lines) + "\n"


_FENCE_RE = re.compile(r"```" + FENCE_TAG + r"[ \t]*\n(.*?)```", re.DOTALL)


def extract_dsl_block(text: str) -> str:
    """Return the last fenced ```vds-dsl block from a completion."""
    matches = _FENCE_RE.findall(text)
    if not matches:
        raise ExtractionError(f"no fenced {FENCE_TAG} block in completion")
    return matches[-1]
