"""Input generators and reference evaluators for the benchmark.

Nothing here imports `omega_baire`: the SCC routine, the reachability walk
and the lasso evaluator are written out from the definitions, so a verdict
computed here is an independent reference for the verdict the package gives.
An automaton is a flat transition list `delta` (successor of state `s` on
symbol index `x` at `delta[s * r + x]`) with initial state 0.
"""

from __future__ import annotations

import random
from collections import deque

LETTERS = "abcd"


def sccs(n: int, r: int, delta: list[int]) -> list[list[int]]:
    """Strongly connected components (Kosaraju, iterative)."""
    order: list[int] = []
    seen = bytearray(n)
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = 1
        stack = [(root, 0)]
        while stack:
            v, x = stack.pop()
            if x < r:
                stack.append((v, x + 1))
                w = delta[v * r + x]
                if not seen[w]:
                    seen[w] = 1
                    stack.append((w, 0))
            else:
                order.append(v)
    rev: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        for x in range(r):
            rev[delta[v * r + x]].append(v)
    comp = [-1] * n
    out: list[list[int]] = []
    for root in reversed(order):
        if comp[root] >= 0:
            continue
        comp[root] = len(out)
        members = [root]
        stack = [root]
        while stack:
            v = stack.pop()
            for u in rev[v]:
                if comp[u] < 0:
                    comp[u] = comp[root]
                    members.append(u)
                    stack.append(u)
        out.append(members)
    return out


def reachable(r: int, delta: list[int], start: int = 0) -> set[int]:
    seen = {start}
    todo = [start]
    while todo:
        v = todo.pop()
        for x in range(r):
            w = delta[v * r + x]
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def terminal_sccs(n: int, r: int, delta: list[int]) -> list[frozenset[int]]:
    """SCCs that no transition leaves, as sets."""
    out = []
    for comp in sccs(n, r, delta):
        members = set(comp)
        if all(delta[v * r + x] in members for v in comp for x in range(r)):
            out.append(frozenset(comp))
    return out


def translation_bound(n: int, r: int, delta: list[int]) -> int:
    """Unpruned state count of the layered translation of the meagre
    complement: n plus |C|^2 for each reachable terminal SCC C (a terminal
    SCC is always a loop once it is reached)."""
    reach = reachable(r, delta)
    return n + sum(len(c) ** 2 for c in terminal_sccs(n, r, delta) if c & reach)


def largest_terminal(n: int, r: int, delta: list[int]) -> int:
    reach = reachable(r, delta)
    return max((len(c) for c in terminal_sccs(n, r, delta) if c & reach), default=0)


def draw_uniform(rng: random.Random, n: int, r: int, band: tuple[int, int]) -> list[int]:
    """Uniformly random complete automaton on n states, redrawn until its
    largest reachable terminal SCC has a size inside `band`.  The band keeps
    the output size of the translation, which is quadratic in that SCC,
    steady from seed to seed."""
    while True:
        delta = [rng.randrange(n) for _ in range(n * r)]
        if band[0] <= largest_terminal(n, r, delta) <= band[1]:
            return delta


def draw_components(
    rng: random.Random, k: int, m: int, r: int, band: tuple[int, int]
) -> list[int]:
    """k disjoint uniformly random components of m states each (every one
    drawn as in `draw_uniform`), entered from a chain of k transient states:
    transient state i moves to i+1 on the first letter and into component
    i on the others.  The result has at least k terminal SCCs."""
    hub = k
    delta = []
    for i in range(k):
        nxt = i + 1 if i + 1 < k else hub
        base = hub + i * m
        delta += [nxt] + [base + rng.randrange(m) for _ in range(r - 1)]
    for i in range(k):
        base = hub + i * m
        delta += [base + t for t in draw_uniform(rng, m, r, band)]
    return delta


def inf_set(r: int, delta: list[int], prefix: list[int], period: list[int]) -> frozenset[int]:
    """States visited infinitely often on prefix . period^omega (symbol
    indices), by running the period until an anchor state repeats."""
    s = 0
    for x in prefix:
        s = delta[s * r + x]
    first_seen: dict[int, int] = {}
    anchors: list[int] = []
    while s not in first_seen:
        first_seen[s] = len(anchors)
        anchors.append(s)
        for x in period:
            s = delta[s * r + x]
    visited: set[int] = set()
    for t in anchors[first_seen[s]:]:
        for x in period:
            t = delta[t * r + x]
            visited.add(t)
    return frozenset(visited)


def muller_accepts(r, delta, table, prefix, period) -> bool:
    return inf_set(r, delta, prefix, period) in table


def _bfs(r: int, delta: list[int], start: int, goal, allowed=None) -> tuple[list[int], int]:
    """Shortest symbol path from `start` to a state satisfying `goal`,
    optionally staying inside `allowed`; returns the path and its end."""
    if goal(start):
        return [], start
    parent = {start: None}
    todo = deque([start])
    while todo:
        v = todo.popleft()
        for x in range(r):
            w = delta[v * r + x]
            if w in parent or (allowed is not None and w not in allowed):
                continue
            parent[w] = (v, x)
            if goal(w):
                end, path = w, []
                while parent[w] is not None:
                    w, x = parent[w]
                    path.append(x)
                path.reverse()
                return path, end
            todo.append(w)
    raise ValueError("goal unreachable")


def covering_lasso(r: int, delta: list[int], block: frozenset[int]) -> tuple[list[int], list[int]]:
    """A lasso whose Inf set is exactly the strongly connected `block`:
    a shortest prefix into it, then a closed walk inside it that visits
    every member.  The walk goes to the nearest unvisited member each time,
    so every state it passes on the way is already visited."""
    prefix, anchor = _bfs(r, delta, 0, lambda s: s in block)
    period: list[int] = []
    left = set(block) - {anchor}
    cur = anchor
    while left:
        path, cur = _bfs(r, delta, cur, lambda s: s in left, block)
        period.extend(path)
        left.discard(cur)
    if cur != anchor:
        back, _ = _bfs(r, delta, cur, lambda s: s == anchor, block)
        period.extend(back)
    else:  # one-state block: close it with a self-transition
        period = [next(x for x in range(r) if delta[anchor * r + x] == anchor)]
    return prefix, period
