"""Independent brute-force reference implementations.

Everything here avoids the library's own algorithms: shortest paths are
found by exhaustive enumeration and costs are summed with Fractions, so
these functions can serve as ground truth for exactness tests.
`path_heap_dijkstra` is the solver's earlier search, kept as the
reference for graphs too large to enumerate, and `reference_search` is
the reverse search the solver ran before searches could be resumed: a
fresh Dijkstra per call, stopped before the source's links are relaxed.
`list_count_bm25` is the
retriever's earlier scorer, which re-counts every term in each token
list.  `rendered_env_digest` and `regex_tokenize` are the earlier digest
renderer and tokenizer.  `reference_parse` is the earlier program parser,
which builds a `_Token` per token and tracks line and column as it goes;
it returns `dsl`'s AST classes and raises `dsl.DslError`, and
`parse_outcome` turns either parser's result or error into one value.
`reference_render_prompt` is the earlier prompt renderer, which wrote
the shared sections once in each of its two branches, and
`render_outcome` turns either renderer's bundle or error into one value.
`fraction_exact_p` is the exact r x c test computed with multivariate
hypergeometric probabilities as Fractions, over tables filled cell by
cell.  `network_from` turns a link -> length dict into the `Network`
the solver reads, so an expected value can come from the dict while the
solver runs on the network; `grid_yard` builds a whole grid environment
from it, and `excerpt_names` reads back what an `env_digest` lists.
`WALL_CLOCK_FIELDS` names the output fields that hold clock readings,
and `unclocked` blanks them.
"""

from __future__ import annotations

import heapq
import math
import random
import re
import string
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence

from vdsagent import dsl, llm
from vdsagent import solver as sv
from vdsagent.env import (Agv, Edge, FleetConfig, Network, Node,
                          Requirements, Task, TerminalEnv)
from vdsagent.errors import ConfigError
from vdsagent.injection import MODELER_SCHEMES, RECOVERY_REFLECTION
from vdsagent.knowledge import BM25_B, BM25_K1

EdgeMap = dict[tuple[int, int], float]

# The report, CSV and trace fields read from the wall clock; every other
# output field is fixed by the inputs.
WALL_CLOCK_FIELDS = ("generated_at", "wall_time", "mean_wall_time",
                     "total_wall_time")


def unclocked(doc: Any) -> Any:
    """`doc` as JSON data with every `WALL_CLOCK_FIELDS` value, at any
    depth, set to None."""
    if isinstance(doc, dict):
        return {k: None if k in WALL_CLOCK_FIELDS else unclocked(v)
                for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [unclocked(v) for v in doc]
    return doc


def random_ast(rng: random.Random) -> dsl.ModelAst:
    """A random syntactically valid program AST (may fail static checks)."""
    def ident() -> str:
        first = rng.choice(string.ascii_letters + "_")
        rest = "".join(rng.choices(string.ascii_letters + string.digits + "_",
                                   k=rng.randrange(0, 12)))
        return first + rest

    def subject() -> dsl.SubjectRef:
        chars = "".join(c for c in string.printable if c not in '"\n\r\x0b\x0c')
        name = "".join(rng.choices(chars, k=rng.randrange(1, 10)))
        return dsl.SubjectRef(kind=rng.choice(("vehicle", "task")), ident=name)

    def node() -> int:
        return rng.randrange(0, 1000)

    def statement() -> dsl.Statement:
        pick = rng.randrange(5)
        if pick == 0:
            return dsl.FlowBalanceAll()
        if pick == 1:
            return dsl.RemoveEdge(node(), node())
        if pick == 2:
            return dsl.ForbidEdge(subject(), node(), node())
        nodes = tuple(node() for _ in range(rng.randrange(2, 6)))
        if pick == 3:
            return dsl.RequireSubpath(subject(), nodes)
        return dsl.RequireExactPath(subject(), nodes)

    return dsl.ModelAst(
        name=ident(),
        statements=tuple(statement() for _ in range(rng.randrange(0, 8))),
    )


def path_cost(edges: EdgeMap, path: tuple[int, ...]) -> Fraction | None:
    """Exact cost of a walk, or None when an edge is missing."""
    total = Fraction(0)
    for u, v in zip(path, path[1:]):
        if (u, v) not in edges:
            return None
        total += Fraction(edges[(u, v)])
    return total


def simple_paths(edges: EdgeMap, source: int, target: int):
    """All node-simple paths source -> target (DFS enumeration)."""
    adjacency: dict[int, list[int]] = {}
    for (u, v) in edges:
        adjacency.setdefault(u, []).append(v)
    out: list[tuple[int, ...]] = []

    def dfs(node: int, path: list[int], seen: set[int]) -> None:
        if node == target:
            out.append(tuple(path))
            return
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                dfs(nxt, path, seen)
                path.pop()
                seen.discard(nxt)

    dfs(source, [source], {source})
    return out


def min_simple_path(edges: EdgeMap, source: int,
                    target: int) -> tuple[Fraction, tuple[int, ...]] | None:
    """Cheapest node-simple path, ties by lexicographic node sequence.

    With strictly positive lengths this also minimizes over all
    edge-simple walks, because dropping any cycle strictly lowers cost.
    """
    if source == target:
        return Fraction(0), (source,)
    best = None
    for path in simple_paths(edges, source, target):
        cand = (path_cost(edges, path), path)
        if best is None or cand < best:
            best = cand
    return best


def edge_simple_walks(edges: EdgeMap, source: int, target: int):
    """All walks source -> target that never repeat a directed edge."""
    adjacency: dict[int, list[int]] = {}
    for (u, v) in edges:
        adjacency.setdefault(u, []).append(v)
    out: list[tuple[int, ...]] = []

    def dfs(node: int, path: list[int], used: set[tuple[int, int]]) -> None:
        if node == target:
            out.append(tuple(path))
        for nxt in adjacency.get(node, ()):
            if (node, nxt) not in used:
                used.add((node, nxt))
                path.append(nxt)
                dfs(nxt, path, used)
                path.pop()
                used.discard((node, nxt))

    dfs(source, [source], set())
    return out


def contains_contiguous(path: tuple[int, ...], forced: tuple[int, ...]) -> bool:
    k = len(forced)
    return any(path[i:i + k] == forced for i in range(len(path) - k + 1))


def min_walk(edges: EdgeMap, source: int, target: int,
             forced: tuple[int, ...] | None = None
             ) -> tuple[Fraction, tuple[int, ...]] | None:
    """Cheapest edge-simple walk, optionally containing a forced segment."""
    if source == target and forced is None:
        return Fraction(0), (source,)
    best = None
    for path in edge_simple_walks(edges, source, target):
        if forced is not None and not contains_contiguous(path, forced):
            continue
        cand = (path_cost(edges, path), path)
        if best is None or cand < best:
            best = cand
    return best


def grid_edges(side: int, length: float = 10) -> EdgeMap:
    """A side x side grid, every neighbour pair linked both ways."""
    edges = {}
    for node in range(side * side):
        row, col = divmod(node, side)
        if col + 1 < side:
            edges[(node, node + 1)] = edges[(node + 1, node)] = length
        if row + 1 < side:
            edges[(node, node + side)] = edges[(node + side, node)] = length
    return edges


def network_from(edges: EdgeMap, nodes: Iterable[int]) -> Network:
    """A network of `nodes` and the links of `edges`, in sorted order.

    Nodes are explicit so that a node without links still exists.
    """
    return Network(nodes=tuple(Node(n) for n in nodes),
                   edges=tuple(Edge(u, v, w)
                               for (u, v), w in sorted(edges.items())))


def grid_yard(side: int, fleet: int, texts: Sequence[str] = (),
              seed: int = 0) -> TerminalEnv:
    """A `grid_edges(side)` yard whose AGV-k carries task Tk between two
    distinct nodes drawn from `seed`, under engineer-level `texts`."""
    rng = random.Random(seed)
    trips = [rng.sample(range(side * side), 2) for _ in range(fleet)]
    return TerminalEnv(
        network_from(grid_edges(side), range(side * side)),
        FleetConfig(tuple(Agv(f"AGV-{k + 1}") for k in range(fleet)),
                    tuple(Task(f"T{k + 1}", f"AGV-{k + 1}", o, d)
                          for k, (o, d) in enumerate(trips))),
        Requirements("engineer", tuple(texts)))


def excerpt_names(digest: str) -> tuple[set, set, set, set]:
    """The node ids, links, AGV ids and task ids an `env_digest` lists."""
    *_, nodes, edges, agvs, tasks = digest.split("\n")

    def bits(line: str) -> list[str]:
        return line.partition(":")[2].split()
    return ({int(b.split(":")[0]) for b in bits(nodes)},
            {tuple(int(n) for n in b.rsplit(":", 1)[0].split("->"))
             for b in bits(edges)},
            {b.split("[")[0] for b in bits(agvs)},
            {b.split(":")[0] for b in bits(tasks)})


def path_heap_dijkstra(edges: EdgeMap, source: int,
                       target: int) -> tuple[float, tuple[int, ...]] | None:
    """Dijkstra with a (cost, path) heap; None when target is unreachable.

    With strictly positive lengths the first settled entry per node is the
    lexicographically smallest optimal path to it.
    """
    if source == target:
        return 0.0, (source,)
    adjacency: dict[int, list[tuple[int, float]]] = {}
    for (u, v), w in edges.items():
        adjacency.setdefault(u, []).append((v, w))
    heap: list[tuple[float, tuple[int, ...]]] = [(0.0, (source,))]
    settled: set[int] = set()
    while heap:
        cost, path = heapq.heappop(heap)
        node = path[-1]
        if node in settled:
            continue
        settled.add(node)
        if node == target:
            return cost, path
        for nxt, w in adjacency.get(node, ()):
            if nxt not in settled:
                heapq.heappush(heap, (cost + w, path + (nxt,)))
    return None


def reference_search(graph: sv.RoadGraph, source: int, target: int,
                     deadline: float = math.inf
                     ) -> tuple[float, tuple[int, ...]]:
    """The solver's earlier `_search` on `graph`, starting afresh."""
    if source == target:
        return 0.0, (source,)
    pred, cut_pred = graph._pred, graph._cut_pred
    dist: dict[int, float] = {target: 0.0}
    rank: dict[int, int] = {}  # settle order
    heap: list[tuple[float, int]] = [(0.0, target)]
    pops = 0
    while heap:
        pops += 1
        if pops % sv.CLOCK_EVERY == 0 and sv._now() > deadline:
            raise sv.SolveError("timeout", "deadline passed during search")
        d, node = heapq.heappop(heap)
        if node in rank:
            continue
        rank[node] = len(rank)
        if node == source:
            break
        into = cut_pred[node] if node in cut_pred else pred.get(node, ())
        for link in into:
            prev, nd = link.source, d + link.length
            if nd < dist.get(prev, math.inf):
                dist[prev] = nd
                heapq.heappush(heap, (nd, prev))
    else:
        raise sv.SolveError("infeasible",
                            f"no path from {source} to {target}")
    succ, cut_succ = graph._succ, graph._cut_succ
    path = [source]
    cost = 0.0
    node = source
    while node != target:
        here, limit = dist[node], rank[node]
        for link in (cut_succ[node] if node in cut_succ else succ[node]):
            nxt = link.target
            if rank.get(nxt, limit) < limit and link.length + dist[nxt] == here:
                break
        path.append(nxt)
        cost += link.length
        node = nxt
    return cost, tuple(path)


def list_count_bm25(query_terms: list[str],
                    documents: list[list[str]]) -> list[float]:
    """BM25 over token lists, statistics over the matching subset only."""
    terms = sorted(set(query_terms))
    matching = [doc for doc in documents if set(doc) & set(terms)]
    if not matching:
        return [0.0] * len(documents)
    n_docs = len(matching)
    avgdl = sum(len(d) for d in matching) / n_docs
    df = {t: sum(1 for d in matching if t in d) for t in terms}
    scores = []
    for doc in documents:
        score = 0.0
        length = len(doc)
        for term in terms:
            freq = doc.count(term)
            if freq == 0:
                continue
            idf = math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5))
            norm = freq + BM25_K1 * (1.0 - BM25_B + BM25_B * length / avgdl)
            score += idf * freq * (BM25_K1 + 1.0) / norm
        scores.append(score)
    return scores


def rendered_env_digest(env: TerminalEnv) -> str:
    """`env_digest` rendered from scratch, line by line."""
    lines = []
    node_bits = []
    for n in sorted(env.network.nodes, key=lambda n: n.id):
        node_bits.append(f"{n.id}:{n.type}" if n.type else str(n.id))
    lines.append(f"nodes ({len(node_bits)}): " + " ".join(node_bits))
    edge_bits = []
    for e in sorted(env.network.edges, key=lambda e: (e.source, e.target)):
        edge_bits.append(f"{e.source}->{e.target}:{e.length:g}")
    lines.append(f"edges ({len(edge_bits)}): " + " ".join(edge_bits))
    agv_bits = []
    for a in env.fleet.agvs:
        attrs = ",".join(f"{k}={a.attributes[k]}" for k in sorted(a.attributes))
        agv_bits.append(f"{a.id}[{attrs}]" if attrs else a.id)
    lines.append(f"agvs ({len(agv_bits)}): " + " ".join(agv_bits))
    task_bits = []
    for t in env.fleet.tasks:
        attrs = ",".join(f"{k}={t.attributes[k]}" for k in sorted(t.attributes))
        bit = f"{t.id}:{t.agv}:{t.origin}->{t.destination}"
        task_bits.append(f"{bit}[{attrs}]" if attrs else bit)
    lines.append(f"tasks ({len(task_bits)}): " + " ".join(task_bits))
    return "\n".join(lines)


def regex_tokenize(text: str) -> list[str]:
    """Retrieval tokens as a regex finds them."""
    return re.findall(r"[a-z0-9]+", text.lower())


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
            raise dsl.DslError("parse", f"unexpected character {text[pos]!r}", line, col)
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

    def fail(self, message: str, tok: _Token | None = None) -> dsl.DslError:
        tok = tok or self.peek()
        shown = tok.value if tok.type != "eof" else "end of input"
        return dsl.DslError("parse", f"{message}, got {shown!r}" if tok.type != "eof"
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
        if len(tok.value) > dsl.MAX_INT_DIGITS:
            raise dsl.DslError("parse", f"integer literal of {len(tok.value)} "
                           f"digits is too long", tok.line, tok.column)
        return int(tok.value)

    def expect_string(self) -> str:
        tok = self.next()
        if tok.type != "string":
            raise self.fail("expected a quoted identifier", tok)
        return tok.value

    def parse_program(self) -> dsl.ModelAst:
        self.expect_keyword("model")
        name_tok = self.next()
        if name_tok.type != "ident":
            raise self.fail("expected a model name", name_tok)
        self.expect_keyword("objective")
        self.expect_keyword("minimize")
        obj_tok = self.next()
        if obj_tok.type != "ident" or obj_tok.value != dsl.OBJECTIVE:
            raise self.fail(f"expected '{dsl.OBJECTIVE}'", obj_tok)
        self.expect_keyword("constraints")
        self.expect_punct("{")
        statements: list[dsl.Statement] = []
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
        return dsl.ModelAst(name=name_tok.value, statements=tuple(statements))

    def parse_statement(self) -> dsl.Statement:
        tok = self.next()
        if tok.type != "ident":
            raise self.fail("expected a statement keyword", tok)
        if tok.value == "flow_balance":
            self.expect_keyword("all")
            return dsl.FlowBalanceAll()
        if tok.value == "remove_edge":
            source, target = self.parse_edge_pair()
            return dsl.RemoveEdge(source, target)
        if tok.value == "forbid_edge":
            subject = self.parse_subject()
            source, target = self.parse_edge_pair()
            return dsl.ForbidEdge(subject, source, target)
        if tok.value == "require_subpath":
            subject = self.parse_subject()
            return dsl.RequireSubpath(subject, self.parse_node_list())
        if tok.value == "require_exact_path":
            subject = self.parse_subject()
            return dsl.RequireExactPath(subject, self.parse_node_list())
        raise self.fail("expected a statement keyword", tok)

    def parse_subject(self) -> dsl.SubjectRef:
        tok = self.next()
        if tok.type != "ident" or tok.value not in ("vehicle", "task"):
            raise self.fail("expected 'vehicle' or 'task'", tok)
        return dsl.SubjectRef(kind=tok.value, ident=self.expect_string())

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


def reference_parse(text: str) -> dsl.ModelAst:
    """The earlier `dsl.parse`: every token a frozen `_Token` with its
    line and column tracked as the text is scanned."""
    return _Parser(text).parse_program()


def parse_outcome(parse, text: str) -> dsl.ModelAst | dsl.DslError:
    """The AST `parse(text)` returns, or the DslError it raises."""
    try:
        return parse(text)
    except dsl.DslError as exc:
        return exc


def reference_render_prompt(role: str, ctx: llm.PromptContext,
                            token_budget: int = llm.DEFAULT_TOKEN_BUDGET
                            ) -> llm.PromptBundle:
    """The earlier `llm.render_prompt`, which writes the requirements,
    correction and instruction sections once in each of its two
    branches."""
    if role not in llm.ROLES:
        raise ConfigError(f"unknown role '{role}'")
    if role == "coder" and ctx.scheme is None:
        raise llm.MissingContext("coder prompt requires a modeling scheme")
    if role == "debugger" and (ctx.failed_program is None
                               or ctx.error_message is None):
        raise llm.MissingContext("debugger prompt requires a failed program "
                                 "and an error message")
    sections: list[str] = []
    if role in ("modeler", "coder"):
        sections.append(llm._section("Terminal environment", ctx.env_digest))
        sections.append(llm._section("Operational requirements",
                                     llm._numbered(ctx.requirements)))
        if ctx.retrieved is not None:
            sections.append(llm._section("Modeling primitives",
                                         llm._primitives_body(ctx.retrieved)))
            sections.append(llm._section("Worked exemplars",
                                         llm._exemplars_body(ctx.retrieved)))
        if role == "coder":
            sections.append(llm._section("Modeling scheme", ctx.scheme))
        sections.append(llm._section("Correction instructions",
                                     llm._numbered(ctx.corrections)))
        if role == "modeler":
            sections.append(llm._section(
                "Instruction",
                "Think step by step, then write the modeling scheme."))
        else:
            sections.append(llm._section(
                "Instruction",
                "Emit exactly one fenced vds-dsl block with the complete "
                "program."))
    else:
        sections.append(llm._section("Operational requirements",
                                     llm._numbered(ctx.requirements)))
        sections.append(llm._section("Failed program", ctx.failed_program))
        sections.append(llm._section("Error message", ctx.error_message))
        sections.append(llm._section("Correction instructions",
                                     llm._numbered(ctx.corrections)))
        sections.append(llm._section(
            "Instruction",
            "Reply with a DIAGNOSIS: section and a CORRECTION: section."))
    bundle = llm.PromptBundle(role=role, system=llm._SYSTEM[role],
                              user="\n\n".join(sections))
    tokens = (len(bundle.system) + len(bundle.user)) / 4.0
    if tokens > token_budget:
        raise llm.PromptBudgetExceeded(
            f"{role} prompt needs ~{tokens:.0f} tokens, budget is "
            f"{token_budget}")
    return bundle


def render_outcome(render, role: str, ctx: llm.PromptContext,
                   token_budget: int) -> llm.PromptBundle | tuple[type, str]:
    """The bundle `render(...)` returns, or the type and message of the
    error it raises."""
    try:
        return render(role, ctx, token_budget)
    except (ConfigError, llm.MissingContext, llm.PromptBudgetExceeded) as exc:
        return type(exc), str(exc)


def fraction_exact_p(table: Sequence[Sequence[int]]) -> float:
    """Freeman-Halton p of an r x c table, summed over Fractions.

    Every table with the observed row and column sums, filled cell by
    cell in row-major order, gets its multivariate hypergeometric
    probability prod n_i! prod C_j! / (N! prod x_ij!) from factorials;
    p sums the probabilities no larger than the observed table's.
    """
    sizes = tuple(sum(r) for r in table)
    totals = tuple(sum(c) for c in zip(*table))
    width = len(totals)
    fact = math.factorial
    numerator = math.prod(map(fact, sizes)) * math.prod(map(fact, totals))
    grand = fact(sum(sizes))

    def probability(cells: Sequence[int]) -> Fraction:
        return Fraction(numerator, grand * math.prod(map(fact, cells)))

    def fill(cells: tuple[int, ...], row_left: int,
             col_left: tuple[int, ...]):
        i, j = divmod(len(cells), width)
        if i == len(sizes):
            if not any(col_left):
                yield cells
            return
        left = sizes[i] if j == 0 else row_left
        # the row's last cell takes what is left of the row
        low = left if j == width - 1 else 0
        for x in range(low, min(left, col_left[j]) + 1):
            yield from fill(cells + (x,), left - x,
                            col_left[:j] + (col_left[j] - x,)
                            + col_left[j + 1:])

    observed = probability([x for r in table for x in r])
    probabilities = [probability(c) for c in fill((), 0, totals)]
    assert sum(probabilities) == 1
    return float(sum(p for p in probabilities if p <= observed))


def stubborn_script(kind: str = "road_closure",
                    attempts: int = 3) -> dict[str, Any]:
    """Every attempt fails the same way (no fenced block at all)."""
    return {
        "modeler": [MODELER_SCHEMES[kind]] * attempts,
        "coder": ["I cannot produce a program for this request."] * attempts,
        "debugger": [RECOVERY_REFLECTION] * max(0, attempts - 1),
    }
