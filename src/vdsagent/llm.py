"""Prompt assembly and completion backends for the expert roles.

Three roles call out to a language model: the modeler (turns
requirements into a modeling scheme), the coder (turns the scheme into
a program), and the debugger (turns a failure into a correction).
Each role's prompt is one list of sections: the role's own head, then
the shared correction instructions and the role's instruction.
Rendering is deterministic; a section that exists but is empty renders
as '(none)' rather than disappearing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Protocol, Sequence

from . import dsl
from .errors import ConfigError, VdsAgentError
from .knowledge import RetrievedContext

ROLES = ("modeler", "coder", "debugger")

DEFAULT_TOKEN_BUDGET = 16000  # tokens, approximated as characters / 4

ENV_URL = "PORTAGENT_LLM_URL"
ENV_MODEL = "PORTAGENT_LLM_MODEL"
ENV_KEY = "PORTAGENT_LLM_KEY"

_RETRIES = 2
_RETRY_BACKOFF_S = 1.0

_sleep = time.sleep  # patched in tests


class TransportError(VdsAgentError):
    """The backend could not be reached or answered abnormally."""


class BackendExhausted(VdsAgentError):
    """A scripted backend ran out of responses for a role."""


class FormatError(VdsAgentError):
    """The backend answered in an unusable shape."""


class MissingContext(VdsAgentError):
    """The render context lacks a section the role requires."""


class PromptBudgetExceeded(VdsAgentError):
    """The assembled prompt is larger than the token budget allows."""


@dataclass(frozen=True)
class PromptBundle:
    role: str
    system: str
    user: str


@dataclass(frozen=True)
class Reflection:
    diagnosis: str
    correction: str


@dataclass(frozen=True)
class PromptContext:
    env_digest: str
    requirements: tuple[str, ...] = ()
    retrieved: RetrievedContext | None = None
    corrections: tuple[str, ...] = ()
    scheme: str | None = None
    failed_program: str | None = None
    error_message: str | None = None


_SYSTEM = {
    "modeler": (
        "You are the modeling expert of a vehicle dispatching team for an "
        "automated container terminal. Read the terminal environment and the "
        "operational requirements, reason step by step about which network "
        "edges, vehicles, and tasks are affected, and produce a numbered "
        "modeling scheme: the objective, the baseline flow-balance "
        "constraint, and every scenario-specific constraint with its exact "
        "nodes, edges (direction matters), vehicles, and tasks."
    ),
    "coder": (
        "You are the coding expert of a vehicle dispatching team. Translate "
        "the modeling scheme into one program in the dispatch-model "
        "language. The grammar is:\n\n" + dsl.GRAMMAR + "\n\n"
        "Comments run from '#' to end of line. remove_edge and forbid_edge "
        "are directional; a bidirectional restriction needs both "
        "directions. Reply with exactly one fenced code block tagged "
        "vds-dsl containing the complete program, and nothing else after "
        "it."
    ),
    "debugger": (
        "You are the debugging expert of a vehicle dispatching team. A "
        "generated program failed. First find the root cause, then say how "
        "to fix it. Reply with exactly two sections: a line starting with "
        "'DIAGNOSIS:' explaining the root cause, then a line starting with "
        "'CORRECTION:' giving a concrete instruction the modeling and "
        "coding experts can follow on the next attempt."
    ),
}

# the closing section of each role's prompt
_INSTRUCTION = {
    "modeler": "Think step by step, then write the modeling scheme.",
    "coder": "Emit exactly one fenced vds-dsl block with the complete "
             "program.",
    "debugger": "Reply with a DIAGNOSIS: section and a CORRECTION: section.",
}


def _section(title: str, body: str) -> str:
    return f"## {title}\n{body.strip() if body.strip() else '(none)'}"


def _numbered(items: Sequence[str]) -> str:
    return "\n".join(f"{i}. {text}" for i, text in enumerate(items, start=1))


def _primitives_body(ctx: RetrievedContext) -> str:
    parts = []
    for p in ctx.primitives:
        parts.append(f"[{p.category}] {p.title}\n{p.body}")
    return "\n\n".join(parts)


def _exemplars_body(ctx: RetrievedContext) -> str:
    parts = []
    for ex in ctx.exemplars:
        parts.append(
            f"### {ex.id}\n{ex.description}\n"
            f"Environment:\n{ex.env_digest}\n"
            f"Program:\n{dsl.fenced(ex.program.strip())}"
        )
    return "\n\n".join(parts)


def render_prompt(role: str, ctx: PromptContext,
                  token_budget: int = DEFAULT_TOKEN_BUDGET) -> PromptBundle:
    """Assemble the deterministic prompt bundle for one role."""
    if role not in ROLES:
        raise ConfigError(f"unknown role '{role}'")
    if role == "coder" and ctx.scheme is None:
        raise MissingContext("coder prompt requires a modeling scheme")
    if role == "debugger" and (ctx.failed_program is None
                               or ctx.error_message is None):
        raise MissingContext("debugger prompt requires a failed program "
                             "and an error message")
    requirements = _section("Operational requirements",
                            _numbered(ctx.requirements))
    if role == "debugger":
        sections = [requirements,
                    _section("Failed program", ctx.failed_program),
                    _section("Error message", ctx.error_message)]
    else:
        sections = [_section("Terminal environment", ctx.env_digest),
                    requirements]
        if ctx.retrieved is not None:
            sections.append(_section("Modeling primitives",
                                     _primitives_body(ctx.retrieved)))
            sections.append(_section("Worked exemplars",
                                     _exemplars_body(ctx.retrieved)))
        if role == "coder":
            sections.append(_section("Modeling scheme", ctx.scheme))
    sections.append(_section("Correction instructions",
                             _numbered(ctx.corrections)))
    sections.append(_section("Instruction", _INSTRUCTION[role]))
    bundle = PromptBundle(role=role, system=_SYSTEM[role],
                          user="\n\n".join(sections))
    tokens = (len(bundle.system) + len(bundle.user)) / 4.0
    if tokens > token_budget:
        raise PromptBudgetExceeded(
            f"{role} prompt needs ~{tokens:.0f} tokens, budget is "
            f"{token_budget}")
    return bundle


def parse_reflection(text: str) -> Reflection:
    """Split a debugger completion into diagnosis and correction.

    The first occurrence of each marker wins, in either order.  When the
    markers are absent (or the correction would come out empty) the whole
    text is treated as the correction, so a correction is never empty for
    non-empty input.
    """
    d_idx = text.find("DIAGNOSIS:")
    c_idx = text.find("CORRECTION:")

    def segment(start: int, marker: str) -> str:
        begin = start + len(marker)
        ends = [i for i in (d_idx, c_idx) if i > start]
        end = min(ends) if ends else len(text)
        return text[begin:end].strip()

    diagnosis = segment(d_idx, "DIAGNOSIS:") if d_idx != -1 else ""
    correction = segment(c_idx, "CORRECTION:") if c_idx != -1 else ""
    if not correction:
        correction = text.strip()
    return Reflection(diagnosis=diagnosis, correction=correction)


class Backend(Protocol):
    def complete(self, bundle: PromptBundle) -> str: ...


ScriptEntry = Any  # str, or {"if_contains": ..., "then": ..., "else": ...}

_CONDITIONAL = ("if_contains", "then", "else")


def _valid_entry(entry: ScriptEntry) -> bool:
    return isinstance(entry, str) or (
        isinstance(entry, dict)
        and all(isinstance(entry.get(key), str) for key in _CONDITIONAL))


def _resolve_entry(entry: ScriptEntry, bundle: PromptBundle) -> str:
    if isinstance(entry, str):
        return entry
    haystack = bundle.system + "\n" + bundle.user
    return entry["then"] if entry["if_contains"] in haystack else entry["else"]


class MockBackend:
    """Deterministic scripted backend for tests and benchmarks.

    The script maps each role to a list of responses consumed in call
    order.  An entry is either a string or a conditional object
    {"if_contains": s, "then": a, "else": b} of strings, evaluated
    against the rendered prompt.  The whole script is checked when the
    backend is built.  Scoped to a single transfer run; do not share one
    instance across runs.
    """

    def __init__(self, script: Mapping[str, list[ScriptEntry]]):
        if not isinstance(script, dict):
            raise ConfigError(f"mock script: expected an object, got "
                              f"{type(script).__name__}")
        unknown = set(script) - set(ROLES)
        if unknown:
            raise ConfigError(f"mock script has unknown roles: {sorted(unknown)}")
        for role, entries in script.items():
            if not isinstance(entries, list):
                raise ConfigError(
                    "mock script roles must map to lists of responses")
            for index, entry in enumerate(entries):
                if not _valid_entry(entry):
                    raise ConfigError(
                        f"mock script {role}[{index}]: expected a string or "
                        f"an object with string {', '.join(_CONDITIONAL)}, "
                        f"got {entry!r}")
        self._script = {role: list(script.get(role, ())) for role in ROLES}
        self._consumed = {role: 0 for role in ROLES}

    def complete(self, bundle: PromptBundle) -> str:
        queue = self._script[bundle.role]
        index = self._consumed[bundle.role]
        if index >= len(queue):
            raise BackendExhausted(
                f"mock script has no response for {bundle.role} call "
                f"#{index + 1}")
        self._consumed[bundle.role] += 1
        return _resolve_entry(queue[index], bundle)


class HttpBackend:
    """Chat-completions backend (temperature pinned to 0)."""

    def __init__(self, url: str, model: str, key: str | None = None,
                 timeout: float = 120.0,
                 post: Callable[..., Any] | None = None):
        if post is None:
            import requests
            post = requests.post
        self._url = url
        self._model = model
        self._key = key
        self._timeout = timeout
        self._post = post

    @classmethod
    def from_env(cls) -> "HttpBackend":
        import os
        url = os.environ.get(ENV_URL)
        model = os.environ.get(ENV_MODEL)
        if not url or not model:
            raise ConfigError(f"{ENV_URL} and {ENV_MODEL} must be set for "
                              "the http backend")
        return cls(url=url, model=model, key=os.environ.get(ENV_KEY))

    def complete(self, bundle: PromptBundle) -> str:
        import requests
        payload = {
            "model": self._model,
            "temperature": 0,
            "messages": [
                {"role": "system", "content": bundle.system},
                {"role": "user", "content": bundle.user},
            ],
        }
        headers = {"Content-Type": "application/json"}
        if self._key:
            headers["Authorization"] = f"Bearer {self._key}"
        try:
            response = self._post(self._url, json=payload, headers=headers,
                                  timeout=self._timeout)
        except requests.RequestException as exc:
            raise TransportError(f"request failed: {exc}") from exc
        if response.status_code != 200:
            raise TransportError(f"HTTP {response.status_code}")
        try:
            data = response.json()
            choice = data["choices"][0]
            if "message" in choice:
                text = choice["message"]["content"]
            else:
                text = choice["text"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise FormatError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str):
            raise FormatError("completion content is not text")
        return text


def complete(backend: Backend, bundle: PromptBundle) -> str:
    """Call a backend with bounded retries on transport failures.

    Up to 2 retries with a fixed backoff; retries are transport-level
    and do not count as workflow iterations.  Empty completions are
    format errors.
    """
    for attempt in range(_RETRIES + 1):
        try:
            text = backend.complete(bundle)
            break
        except TransportError:
            if attempt == _RETRIES:
                raise
            _sleep(_RETRY_BACKOFF_S)
    if not isinstance(text, str):
        raise FormatError("backend returned a non-string completion")
    if not text.strip():
        raise FormatError("backend returned an empty completion")
    return text
