"""Independent brute-force reference implementations.

Everything here avoids the library's own algorithms: shortest paths are
found by exhaustive enumeration and costs are summed with Fractions, so
these functions can serve as ground truth for exactness tests.
`path_heap_dijkstra` is the solver's earlier search, kept as the
reference for graphs too large to enumerate; `list_count_bm25` is the
retriever's earlier scorer, which re-counts every term in each token
list.  `rendered_env_digest`, `regex_tokenize` and `key_function_top_k`
are the earlier digest renderer, tokenizer and top-k ranking.
`fraction_exact_p` is the exact r x 2 test computed with hypergeometric
probabilities as Fractions.  `network_from` turns a link -> length dict
into the `Network` the solver reads, so an expected value can come from
the dict while the solver runs on the network.
"""

from __future__ import annotations

import heapq
import math
import random
import re
import string
from fractions import Fraction
from typing import Any, Iterable, Sequence

from vdsagent import dsl
from vdsagent.env import Edge, Network, Node, TerminalEnv
from vdsagent.injection import MODELER_SCHEMES, RECOVERY_REFLECTION
from vdsagent.knowledge import BM25_B, BM25_K1

EdgeMap = dict[tuple[int, int], float]


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


def key_function_top_k(scores: Sequence[float], ids: Sequence[str],
                       k: int) -> list[int]:
    """Indexes of the k best scores, ties by id, ranked by a key function."""
    return heapq.nsmallest(k, range(len(scores)),
                           key=lambda i: (-scores[i], ids[i]))


def fraction_exact_p(table: Sequence[Sequence[int]]) -> float:
    """Freeman-Halton p of an r x 2 table, summed over Fractions.

    Every first column with the observed row sizes and column total gets
    its multivariate hypergeometric probability from factorials; p sums
    the probabilities no larger than the observed table's.
    """
    sizes = [a + b for a, b in table]
    total = sum(a for a, _ in table)
    grand = sum(sizes)
    fact = math.factorial
    numerator = fact(total) * fact(grand - total) * math.prod(map(fact, sizes))

    def probability(column: Sequence[int]) -> Fraction:
        denominator = fact(grand) * math.prod(
            fact(a) * fact(n - a) for n, a in zip(sizes, column))
        return Fraction(numerator, denominator)

    def columns(row: int, left: int):
        if row == len(sizes) - 1:
            if left <= sizes[row]:
                yield (left,)
            return
        for a in range(min(sizes[row], left) + 1):
            for rest in columns(row + 1, left - a):
                yield (a,) + rest

    observed = probability([a for a, _ in table])
    probabilities = [probability(c) for c in columns(0, total)]
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
