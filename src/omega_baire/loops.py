"""Graph substrate: the one SCC routine (`_tarjan`, behind `scc_decompose`
and `is_loop`) and the one level-order walk that the whole package shares,
and loops, enumerated per SCC by a subset-bitmask kernel.

A loop is a nonempty state set reachable from the initial state whose induced
subgraph (transitions with both endpoints inside the set) is strongly
connected, where a singleton additionally needs a self-transition.  Loops are
exactly the Inf sets of runs; SCCs are the maximal loops plus the trivial
one-state components, and terminal SCCs absorb every continuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Container, Iterable, Iterator, Sequence

from .automaton import DetAutomaton
from .errors import BadStateIndex, SizeGuard

DEFAULT_ENUMERATION_BUDGET = 1 << 20


@dataclass(frozen=True)
class SccAnalysis:
    """SCC partition of an automaton plus the derived condensation data.

    SCC ids are assigned by ascending smallest member state, so the analysis
    of a given automaton is reproducible.  `terminal` holds the ids with no
    outgoing condensation edge; every transition from a state of a terminal
    SCC stays inside it.
    """

    scc_of: tuple[int, ...]
    sccs: tuple[frozenset[int], ...]
    condensation_edges: frozenset[tuple[int, int]]
    terminal: frozenset[int]
    reachable: frozenset[int]

    @property
    def terminal_sccs(self) -> tuple[frozenset[int], ...]:
        return tuple(self.sccs[i] for i in sorted(self.terminal))

    def scc_id_of_set(self, z: Iterable[int]) -> int | None:
        """Id of the SCC equal (as a set) to `z`, or None."""
        zs = frozenset(z)
        if not zs:
            return None
        i = self.scc_of[min(zs)]
        return i if self.sccs[i] == zs else None

    def is_terminal_set(self, z: Iterable[int]) -> bool:
        i = self.scc_id_of_set(z)
        return i is not None and i in self.terminal


def level_order(
    delta: Sequence[int],
    r: int,
    start: int,
    allowed: Container[int] | None = None,
) -> Iterator[tuple[int, int, int]]:
    """Level-order walk from `start` over a flat table with `r` symbols.

    Yields (state, predecessor, symbol index) in discovery order, `start`
    first as (start, -1, -1).  Successors are taken in symbol order, so the
    links lead each state back along the lexicographically first of its
    shortest paths.  Only states in `allowed` are entered.  Visited states
    are marked in a bytearray, and a caller that stops early walks no
    further than it read.
    """
    seen = bytearray(len(delta) // r)
    seen[start] = 1
    yield start, -1, -1
    frontier = [start]
    symbols = range(r)
    while frontier:
        nxt: list[int] = []
        for s in frontier:
            base = s * r
            for x in symbols:
                t = delta[base + x]
                if not seen[t] and (allowed is None or t in allowed):
                    seen[t] = 1
                    nxt.append(t)
                    yield t, s, x
        frontier = nxt


def scc_decompose(
    a: DetAutomaton, allowed: Collection[int] | None = None
) -> list[frozenset[int]]:
    """SCCs of the subgraph induced by `allowed` (default: every state),
    sorted by smallest member: the components of `_tarjan`."""
    return sorted(_tarjan(a, allowed), key=min)


def _tarjan(
    a: DetAutomaton, allowed: Collection[int] | None = None
) -> Iterator[frozenset[int]]:
    """The SCCs of the subgraph induced by `allowed` (default: every state),
    each yielded as Tarjan's algorithm completes it, so no component
    reaches a later one.  A caller that stops early walks no further.

    Iterative, so that long chains do not overflow the interpreter stack.
    Each state has one 4-byte mark: 1 while it is unvisited in `allowed`,
    its visit number minus n (negative) while it is on the stack, and 0
    outside `allowed` or once its component is out, so no low-link ever
    takes it.  The marks start zeroed, so a small `allowed` sets only its
    own.
    """
    n = a.n_states
    r = len(a.alphabet)
    delta = a.delta

    mark = memoryview(bytearray(4 * n)).cast("i")
    if allowed is None:
        allowed = range(n)
    for s in allowed:
        mark[s] = 1
    stack: list[int] = []
    counter = -n

    for root in allowed:
        if mark[root] != 1:
            continue
        mark[root] = counter
        stack.append(root)
        work: list[list[int]] = [[root, 0, counter]]  # state, next symbol, low-link
        counter += 1
        while work:
            frame = work[-1]
            v, xi, low = frame
            base = v * r
            while xi < r:
                w = delta[base + xi]
                xi += 1
                m = mark[w]
                if m == 1:
                    frame[1] = xi
                    frame[2] = low
                    mark[w] = counter
                    stack.append(w)
                    work.append([w, 0, counter])
                    counter += 1
                    break
                if m < low:
                    low = m
            else:
                work.pop()
                if work and low < work[-1][2]:
                    work[-1][2] = low
                if low == mark[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        mark[w] = 0
                        comp.append(w)
                        if w == v:
                            break
                    yield frozenset(comp)


def analyze(a: DetAutomaton) -> SccAnalysis:
    """SCCs, condensation edges, terminal SCCs, and reachability, in O(n*|X|)."""
    n = a.n_states
    r = len(a.alphabet)
    delta = a.delta
    comps = scc_decompose(a)
    scc_of = [0] * n
    for i, comp in enumerate(comps):
        for s in comp:
            scc_of[s] = i

    edges: set[tuple[int, int]] = set()
    for s in range(n):
        si = scc_of[s]
        base = s * r
        for x in range(r):
            ti = scc_of[delta[base + x]]
            if ti != si:
                edges.add((si, ti))

    with_out = {e[0] for e in edges}
    terminal = frozenset(i for i in range(len(comps)) if i not in with_out)
    return SccAnalysis(
        scc_of=tuple(scc_of),
        sccs=tuple(comps),
        condensation_edges=frozenset(edges),
        terminal=terminal,
        reachable=frozenset(s for s, _, _ in level_order(delta, r, a.initial)),
    )


def self_loop_symbol(a: DetAutomaton, s: int) -> int | None:
    """Index of the first symbol that maps `s` to itself, or None; a
    singleton set, or a one-state SCC, is a loop iff this is not None."""
    r = len(a.alphabet)
    return next((x for x in range(r) if a.delta[s * r + x] == s), None)


def cyclic_sccs(
    a: DetAutomaton, allowed: Collection[int] | None = None
) -> Iterator[frozenset[int]]:
    """The SCCs of the subgraph induced by `allowed` that carry a cycle (more
    than one state, or a self-transition), sorted by smallest member.  Every
    set inside `allowed` that carries a closed walk visiting all of it lies
    inside exactly one of them."""
    for comp in scc_decompose(a, allowed):
        if len(comp) > 1 or self_loop_symbol(a, min(comp)) is not None:
            yield comp


def _local_masks(a: DetAutomaton, members: Sequence[int]) -> tuple[list[int], list[int]]:
    """Successor and predecessor bitmasks of the subgraph induced by
    `members`: bit j of succ[i] (and bit i of pred[j]) is set iff some symbol
    maps members[i] to members[j]."""
    pos = {s: i for i, s in enumerate(members)}
    r = len(a.alphabet)
    delta = a.delta
    k = len(members)
    bit = [1 << i for i in range(k)]
    succ = [0] * k
    pred = [0] * k
    for i, s in enumerate(members):
        base = s * r
        for x in range(r):
            j = pos.get(delta[base + x])
            if j is not None:
                succ[i] |= bit[j]
                pred[j] |= bit[i]
    return succ, pred


def _strongly_connected(succ: list[int], pred: list[int], mask: int) -> bool:
    """Strong connectivity of the subgraph induced by the nonempty `mask`
    over local masks from `_local_masks`: its lowest bit reaches every bit
    forward and backward inside `mask` (the frontier is taken from its top
    bit, which keeps the ints short); a singleton needs a self-transition."""
    low = mask & -mask
    if low == mask:
        return succ[low.bit_length() - 1] & low != 0
    for adj in (succ, pred):
        rest = mask ^ low
        frontier = low
        while frontier and rest:
            i = frontier.bit_length() - 1
            frontier ^= 1 << i
            new = adj[i] & rest
            rest ^= new
            frontier |= new
        if rest:
            return False
    return True


def is_loop(
    a: DetAutomaton, z: Iterable[int], analysis: SccAnalysis | None = None
) -> bool:
    """Whether `z` is realizable as the Inf set of some run.

    True iff `z` is nonempty, reachable from the initial state, and carries a
    closed walk inside `z` visiting all of `z`.  Given an analysis, a set
    equal to an SCC is decided in linear time: it is a loop iff it has more
    than one state or a self-transition, as is a singleton.  Any other set
    is strongly connected iff the first component `_tarjan` completes
    inside `z` is all of `z`.  That pass stops at the first component, so
    it takes O(|z|·|X|) time and memory, plus zeroing 4n bytes of marks.
    """
    zs = frozenset(z)
    for s in zs:
        if not 0 <= s < a.n_states:
            raise BadStateIndex(f"state {s} out of range")
    if not zs:
        return False
    if analysis is None:  # isdisjoint stops the walk at the first state of `z`
        reachable = (s for s, _, _ in level_order(a.delta, len(a.alphabet), a.initial))
    else:
        reachable = analysis.reachable
    if zs.isdisjoint(reachable):
        return False
    if len(zs) == 1 or (analysis is not None and analysis.scc_id_of_set(zs) is not None):
        return len(zs) > 1 or self_loop_symbol(a, min(zs)) is not None
    return len(next(_tarjan(a, zs))) == len(zs)


def loop_candidates(
    a: DetAutomaton, budget: int, analysis: SccAnalysis | None
) -> list[frozenset[int]]:
    """The reachable SCCs in id order, the only places loops live.  Raises
    SizeGuard when their subset counts together exceed `budget`."""
    if analysis is None:
        analysis = analyze(a)
    candidates = [c for c in analysis.sccs if not c.isdisjoint(analysis.reachable)]
    # The sum stops at the budget: past it, it can grow to thousands of digits.
    cost = 0
    for c in candidates:
        cost += 1 << len(c)
        if cost > budget:
            raise SizeGuard(f"loop enumeration needs more than {budget} subset checks")
    return candidates


def scc_loops(a: DetAutomaton, scc: frozenset[int]) -> Iterator[frozenset[int]]:
    """The loops inside one SCC, in ascending subset-mask order over its
    sorted members."""
    members = sorted(scc)
    k = len(members)
    succ, pred = _local_masks(a, members)
    for mask in range(1, 1 << k):
        if _strongly_connected(succ, pred, mask):
            yield frozenset(members[i] for i in range(k) if mask >> i & 1)


def iter_loops(
    a: DetAutomaton,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    analysis: SccAnalysis | None = None,
) -> Iterator[frozenset[int]]:
    """Lazily yield all loops; loops live inside single SCCs, so only subsets
    of reachable SCCs are examined.  Raises SizeGuard when the total subset
    count would exceed `budget`.

    The budget check and the candidate SCCs come from `loop_candidates`,
    the loops of each SCC from `scc_loops`; the verifier's `symdiff-loops`
    shares both, and enumerates only the SCCs its per-SCC facts leave open.
    Each SCC's induced edges are stored once as int successor and
    predecessor masks over its sorted members; every subset mask is then
    tested by a forward and a backward closure from its lowest bit in int
    operations (a singleton by its self-loop bit), and a frozenset is built
    only for a loop.  SCCs come in id order, and the loops of one SCC in
    ascending subset-mask order."""
    for scc in loop_candidates(a, budget, analysis):
        yield from scc_loops(a, scc)


def enumerate_loops(
    a: DetAutomaton,
    *,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
    analysis: SccAnalysis | None = None,
) -> list[frozenset[int]]:
    """All loops, sorted canonically (ascending state-set bitmask)."""
    loops = list(iter_loops(a, budget=budget, analysis=analysis))
    loops.sort(key=lambda z: sum(1 << s for s in z))
    return loops
