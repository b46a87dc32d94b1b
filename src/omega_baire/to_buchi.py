"""Deterministic Muller to Buchi translation for maximal-loop tables.

When every loop entry of a Muller table is a whole SCC, the language is
Buchi-recognizable with at most |S| + |S|^2 states: each table SCC gets a
stack of sweep layers that advance only when the run visits the block's
states in a fixed order, so the top layer recurs exactly when the run visits
the whole block infinitely often.  Layer 0 tracks the original automaton.

Pruning keeps the states the initial state reaches.  Which they are is a
property of each block's own graph: layer j < k of a k-state block keeps
the members the block reaches from member j - 1 without entering member j,
the top layer keeps only its corner, and layer 0 keeps what the initial
state, the targets that leave a block and the targets of the top corners
reach without entering a first member.

The table is built by one of two kernels that build the same automaton: a
numpy one and a pure-Python one.  The numpy kernel first finds the kept
states by that rule, all layers of a block at once, then writes only their
rows; the Python kernel builds the whole grid and walks it from the initial
state, the independent route.  `_numpy_kernel` picks numpy from
`VECTORIZE_THRESHOLD` output cells on, importing it if need be, and from
the much smaller `automaton.numpy_if_loaded` crossover on once numpy is
already imported; below both, Python.  So a process that has not loaded
numpy, such as the CLI, pays its import only for a large translation.

Tables with non-maximal loop entries are rejected; entries that are not
loops at all cannot change the language and are dropped with a diagnostic.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from heapq import nsmallest
from itertools import accumulate, compress
from typing import Iterator

from .automaton import BuchiSet, DetAutomaton, MullerTable, numpy_if_loaded
from .errors import PreconditionViolated, SizeGuard
from .loops import SccAnalysis, analyze, is_loop, level_order

# From this many (state, symbol) cells of the unpruned output on, the
# construction uses the numpy kernel even if that imports numpy, whose
# import costs 150-190 ms; below it, only if numpy is already imported and
# the output reaches `numpy_if_loaded`'s crossover (see `_numpy_kernel`).
VECTORIZE_THRESHOLD = 1 << 16
# Rows, in whole layers of a block, that the numpy kernel makes and writes
# per slice; a row costs about 24 B of peak.  On the ROADMAP family at n=2000
# (2-vCPU x86-64) 2^11 was slower than a whole-table build, 2^12-2^15 faster.
_PRUNE_ROWS = 1 << 13
# After a round of `_block_layers` in which fewer than one row word in this
# many gained a bit, the next round pushes those words alone; after a busier
# one it ORs every row.  Ratios of 4 to 32 build the benchmark ladder within
# its noise; pushing every round was 2.5-4x slower on the ladder's blocks
# (2-vCPU x86-64, numpy 2.4).
_PUSH_RATIO = 8
# Largest unpruned output, in (state, symbol) cells, that the translation
# builds.  With 4-byte tables `to-buchi` peaks at about 15 B per cell end to
# end (74.3 MiB for 2.64M unpruned states at n=2000 and 2 letters, 64.2 MiB
# for 1.37M at n=1200 and 4 letters, random tables from random.Random(5));
# with 8-byte ones it took 26-31 B (153.5 and 138.1 MiB).  The budget keeps
# the 35 B measured then, until a run near it is measured: half of an 8 GB
# machine holds 4 GiB / 35 B = 123M cells, 61M states at 2 letters, about
# n=9800 by quadratic growth (n=8000: 41M states).  The other half is
# headroom for the interpreter, the writer and other processes.  Below 2**31
# cells, every state number fits the tables' C ints.
MAX_TRANSLATION_CELLS = 4 * 2**30 // 35
# Entries of a kind, and states of an entry, that `MaximalLoopReport.describe`
# lists before it gives only their count.
_LISTED = 10


@dataclass(frozen=True)
class MaximalLoopReport:
    """Outcome of the maximal-loop precondition check.

    `blocks` are the accepted entries (loops that equal an SCC), ordered by
    smallest member; `non_loops` are inert entries that would be dropped.
    """

    ok: bool
    blocks: tuple[frozenset[int], ...]
    non_maximal: tuple[frozenset[int], ...]
    non_loops: tuple[frozenset[int], ...]

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        """One line naming the rejected and the dropped entries.  Past
        `_LISTED` entries of a kind, or states of an entry, the rest is
        left out and the count given, so the line stays short for any
        table."""
        parts = [
            f"{label}: " + _describe_sets(sets)
            for label, sets in (
                ("non-maximal loop entries", self.non_maximal),
                ("dropped non-loop entries", self.non_loops),
            )
            if sets
        ]
        return "; ".join(parts) if parts else "all loop entries are maximal"


def _describe_sets(sets: Sequence[frozenset[int]]) -> str:
    """`{1,2} {4}`, or `{1,2,...} (N states)` for a set of more than
    `_LISTED` states, and `... (N entries)` after the first `_LISTED` sets."""
    shown = []
    for z in sets[:_LISTED]:
        if len(z) <= _LISTED:
            shown.append("{" + ",".join(map(str, sorted(z))) + "}")
        else:
            first = ",".join(map(str, nsmallest(_LISTED, z)))
            shown.append(f"{{{first},...}} ({len(z)} states)")
    if len(sets) > _LISTED:
        shown.append(f"... ({len(sets)} entries)")
    return " ".join(shown)


def check_maximal_loops(
    a: DetAutomaton, t: MullerTable, analysis: SccAnalysis | None = None
) -> MaximalLoopReport:
    """True iff every table entry that is a loop equals an SCC of the
    automaton (set equality)."""
    if analysis is None:
        analysis = analyze(a)
    t.validate_for(a.n_states)
    blocks: list[frozenset[int]] = []
    non_maximal: list[frozenset[int]] = []
    non_loops: list[frozenset[int]] = []
    for entry in t.entries:
        if not is_loop(a, entry, analysis):
            non_loops.append(entry)
        elif analysis.scc_id_of_set(entry) is not None:
            blocks.append(entry)
        else:
            non_maximal.append(entry)
    key = lambda z: tuple(sorted(z))
    return MaximalLoopReport(
        ok=not non_maximal,
        blocks=tuple(sorted(blocks, key=min)),
        non_maximal=tuple(sorted(non_maximal, key=key)),
        non_loops=tuple(sorted(non_loops, key=key)),
    )


def buchi_state_bound(
    a: DetAutomaton, t: MullerTable, analysis: SccAnalysis | None = None
) -> int:
    """Exact unpruned state count of the translation: |S| plus the squared
    size of every maximal loop entry."""
    blocks = check_maximal_loops(a, t, analysis).blocks
    return a.n_states + sum(len(b) ** 2 for b in blocks)


class LayeredOrigins(Mapping):
    """Read-only map from output state to its (base state, layer) pair,
    computed on demand so that large translations stay cheap."""

    def __init__(self, kept: Sequence[int], n: int, orderings: list[list[int]], offsets: list[int]):
        self._kept = kept
        self._n = n
        self._orderings = orderings
        self._offsets = offsets

    def __getitem__(self, new_idx: int) -> tuple[int, int]:
        try:
            if new_idx < 0:  # would wrap around in the sequence
                raise IndexError(new_idx)
            idx = self._kept[new_idx]
        except (IndexError, TypeError):
            raise KeyError(new_idx) from None
        if idx < self._n:
            return (idx, 0)
        bi = bisect_right(self._offsets, idx) - 1
        members = self._orderings[bi]
        k = len(members)
        rel = idx - self._offsets[bi]
        return (members[rel % k], rel // k + 1)

    def __len__(self) -> int:
        return len(self._kept)

    def runs(self) -> Iterator[tuple[int, Sequence[int], int]]:
        """All origins in output-state order, in bulk: a run `(first,
        bases, layer)` says that output state `first + i` comes from
        `(bases[i], layer)`.  Each run lies in one row of one layer."""
        kept, n = self._kept, self._n
        lo = bisect_left(kept, n)
        if lo:
            yield 0, kept[:lo], 0
        for off, members in zip(self._offsets, self._orderings):
            k = len(members)
            for layer in range(1, k + 1):
                row = off + (layer - 1) * k
                hi = bisect_left(kept, row + k, lo)
                if hi - lo == k:
                    yield lo, members, layer
                elif hi > lo:
                    yield lo, [members[idx - row] for idx in kept[lo:hi]], layer
                lo = hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._kept)))


@dataclass(frozen=True)
class BuchiTranslation:
    """Result of the layered translation.

    `origin` maps each state of the output automaton to its (base state,
    layer) pair in the layered construction; `unpruned_state_count` is the
    exact state count before unreachable layers are removed.  `report` is
    the precondition check the translation ran: its blocks and the dropped
    entries.
    """

    automaton: DetAutomaton
    accepting: BuchiSet
    origin: Mapping[int, tuple[int, int]] = field(compare=False, hash=False)
    unpruned_state_count: int
    report: MaximalLoopReport = field(compare=False, hash=False)


def _layered_delta_python(
    a: DetAutomaton,
    orderings: list[list[int]],
    offsets: list[int],
    block_of: list[int],
    rank0: list[int],
    first_of: list[int],
    total: int,
) -> list[int]:
    """The layered table as a flat list, one comprehension or slice per row
    of a layer.  Per block, the member targets, their in-block ranks (-1
    once the target leaves the block) and the cells of each rank are found
    once; every layer below the top is the same template shifted to its
    row, with the cells of its own rank promoted to the next corner."""
    r = len(a.alphabet)
    delta = a.delta
    flat = [0] * (total * r)
    flat[: len(delta)] = [
        t if f < 0 else f for t, f in zip(delta, map(first_of.__getitem__, delta))
    ]
    for bi, members in enumerate(orderings):
        k = len(members)
        off = offsets[bi]
        targets = [t for z in members for t in delta[z * r : z * r + r]]
        ranks = [rank0[t] if block_of[t] == bi else -1 for t in targets]
        cells_of_rank: list[list[int]] = [[] for _ in range(k)]
        for i, q in enumerate(ranks):
            if q >= 0:
                cells_of_rank[q].append(i)
        pairs = list(zip(ranks, targets))
        for j in range(1, k):
            row = off + (j - 1) * k
            out = [row + q if q >= 0 else t for q, t in pairs]
            corner = off + j * k + j
            for i in cells_of_rank[j]:
                out[i] = corner
            flat[row * r : (row + k) * r] = out
        top = off + (k - 1) * k
        flat[top * r : (top + k) * r] = targets
    return flat


def _prune_python(flat: list[int], r: int, initial: int):
    """Reachability over the layered table by one level-order walk from the
    initial state: the independent route to the states that
    `_layered_delta_numpy` derives from each block's graph, and in Python a
    walk pays per state, not per level.

    The walk's states are marked in `seen`; the kept cells are picked by a
    mask repeating `seen` once per symbol, and each target is renumbered by
    the running count of kept states before it."""
    total = len(flat) // r
    seen = bytearray(total)
    for s, _, _ in level_order(flat, r, initial):
        seen[s] = 1
    kept = array("i", compress(range(total), seen))
    cells = bytearray(len(flat))
    for x in range(r):
        cells[x::r] = seen
    renumber = list(accumulate(seen, initial=0))
    return list(map(renumber.__getitem__, compress(flat, cells))), kept


def _block_layers(succ):
    """Entry [j - 1, q] of the (k - 1, k) bool result says whether layer j
    of a k-member block keeps member q: whether the block graph reaches q
    from member j - 1 without entering member j.  `succ` is the (k, r)
    table of the members' targets in ranks, with member p itself in place
    of a target of p outside the block (a self-transition changes nothing).

    Member q holds one bit per layer, in uint64 words, starting with the
    bit of the layer whose corner it is.  A round moves the bits that the
    last round gained along the edges, less the bit of the layer that an
    edge into q promotes out of, until no word gains a bit.  After a busy
    round a round ORs every row into its successors at once, one `reduceat`
    over the edges grouped by target; after a round in which fewer than one
    word in `_PUSH_RATIO` gained, it pushes only the words that did, merging
    those that meet in one word by a sort.  A word gains at most 64 bits, so
    at most 64 * `_PUSH_RATIO` + 1 rounds are whole ones, and a block costs
    O(k^2 r) word operations, up to the sort's log factor, however deep its
    layers' walks go.  Bits go in and out through one byte view, so the
    words' byte order does not matter."""
    import numpy as np

    k, r = succ.shape
    words = -(-(k - 1) // 64)
    i = np.arange(k - 1)
    bits = np.zeros((k, words * 64), dtype=bool)
    bits[i, i] = True  # member j - 1 is the corner of layer j
    rows = np.packbits(bits, axis=1, bitorder="little").view(np.uint64)
    del bits
    # An edge into member q promotes out of layer q, whose corner is q - 1;
    # an edge into member 0 promotes out of layer 0, which has no bit.
    keep = np.full_like(rows, ~np.uint64(0))
    keep[1:] = ~rows[:-1]
    keep_words = keep.ravel()
    # In a block of two or more every member has an in-block predecessor
    # other than itself, so each row is one group of the edges by target.
    src = np.repeat(np.arange(k), r)
    dst = succ.ravel()
    moves = dst != src
    order = np.argsort(dst[moves], kind="stable")
    src = src[moves].take(order)
    starts = np.searchsorted(dst[moves].take(order), np.arange(k))
    succ_words = succ * words
    stamp = np.empty(rows.size, dtype=np.intp)
    cells = np.flatnonzero(rows)  # words that gained bits, as row * words + word
    gained = rows.ravel().take(cells)
    while cells.size:
        if cells.size * _PUSH_RATIO >= rows.size:
            grown = np.bitwise_or.reduceat(rows.take(src, axis=0), starts)
            grown &= keep
            grown |= rows
            rows ^= grown  # now the bits this round gained
            cells = np.flatnonzero(rows)
            gained = rows.ravel().take(cells)
            rows = grown
        else:
            p, w = np.divmod(cells, words)
            cells = succ_words.take(p, axis=0)
            cells += w[:, None]
            cells = cells.ravel()
            pushed = keep_words.take(cells).reshape(-1, r)
            pushed &= gained[:, None]
            gained = pushed.ravel()
            at = np.arange(cells.size)
            stamp[cells] = at
            if not (stamp.take(cells) == at).all():  # some words meet
                order = cells.argsort()
                cells = cells.take(order)
                heads = np.flatnonzero(np.diff(cells, prepend=-1))
                gained = np.bitwise_or.reduceat(gained.take(order), heads)
                cells = cells.take(heads)
            flat = rows.ravel()
            gained &= ~flat.take(cells)
            grew = np.flatnonzero(gained)
            cells = cells.take(grew)
            gained = gained.take(grew)
            flat[cells] |= gained
    bits = np.unpackbits(rows.view(np.uint8), axis=1, count=k - 1, bitorder="little")
    return bits.T.view(bool)


def _layered_delta_numpy(
    a: DetAutomaton,
    orderings: list[list[int]],
    offsets: list[int],
    block_of: list[int],
    rank0: list[int],
    first_of: list[int],
    total: int,
    prune: bool,
):
    """The layered table and its kept states, in numpy.  Under `prune` the
    kept states are found first, by the rule in the module docstring:
    `_block_layers` for the layers below the top of each block, its corner
    for the top layer, and for layer 0 one level-order walk over at most
    |S| states.  The rule holds because every corner is reachable from the
    initial state:
      * every block is a loop, so it is reachable, and it is an SCC, so once
        the run is in the block it can reach the block's first state; from
        layer 0, or already at layer 1, that is the layer-1 corner;
      * from the layer-j corner, a path inside the block to `members[j]`
        keeps layer j until it reaches `members[j]`, which promotes it to
        the layer-(j+1) corner.
    So every member is some layer's corner and every layer-0 seed the
    target of a kept state.  Without `prune` every state is kept.

    Then the layers are made a slice at a time: the layer-1 rows of the
    block shifted to each layer's offset, with the cells of the layer's own
    rank promoted to the next corner.  Only the kept rows, renumbered, go
    straight into the C int arrays that the automaton and its origins keep,
    so no unpruned table is made and no table is copied afterwards.  `take`
    and `compress` gather rows about 7x faster than fancy or mask indexing."""
    import numpy as np

    r = len(a.alphabet)
    delta2d = np.frombuffer(a.delta, dtype=np.intc).reshape(-1, r)
    block_np = np.asarray(block_of, dtype=np.intc)
    rank_np = np.asarray(rank0, dtype=np.intc)
    first = np.asarray(first_of, dtype=np.intc).take(delta2d)
    layer0 = np.where(first >= 0, first, delta2d)
    # Per block, the member targets (the top layer) and which stay inside.
    blocks = [
        (targets, block_np.take(targets) == bi)
        for bi, targets in enumerate(delta2d.take(m, axis=0) for m in orderings)
    ]
    kept: Sequence[int] = range(total)
    if prune:
        visited = np.zeros(total, dtype=bool)
        seeds = [np.array([a.initial], dtype=np.intc)]
        for bi, (targets, in_block) in enumerate(blocks):
            k = len(targets)
            top = offsets[bi] + (k - 1) * k
            seeds += [targets[~in_block], targets[-1]]
            visited[top + k - 1] = True  # the top corner
            if k > 1:
                succ = np.where(in_block, rank_np.take(targets), np.arange(k)[:, None])
                grid = visited[offsets[bi] : top].reshape(k - 1, k)
                grid[...] = _block_layers(succ)
        frontier = np.concatenate(seeds)
        visited[frontier] = True
        stamp = np.empty(total, dtype=np.intc)
        while frontier.size:
            # An edge into a first member enters its layer-1 corner, marked above.
            nxt = layer0.take(frontier, axis=0).ravel()
            nxt = nxt[~visited[nxt]]
            positions = np.arange(nxt.size, dtype=np.intc)
            stamp[nxt] = positions
            frontier = nxt[stamp[nxt] == positions]  # one copy of each state
            visited[frontier] = True
        renumber = np.cumsum(visited, dtype=np.intc, out=stamp)
        del stamp
        kept = array("i", [0]) * int(renumber[-1])
        renumber -= 1
        np.frombuffer(kept, dtype=np.intc)[:] = np.flatnonzero(visited)
    table = array("i", [0]) * (len(kept) * r)
    table_np = np.frombuffer(table, dtype=np.intc).reshape(-1, r)
    at = 0

    def write(rows, lo: int) -> None:
        """Write the kept ones of `rows`, the rows of states lo, lo + 1, ..."""
        nonlocal at
        if prune:
            rows = renumber.take(rows.compress(visited[lo : lo + len(rows)], axis=0))
        table_np[at : at + len(rows)] = rows
        at += len(rows)

    write(layer0, 0)
    for off, (targets, in_block) in zip(offsets, blocks):
        k = len(targets)
        # Rank 0 for a target outside the block: no layer j >= 1 promotes it.
        ranks = np.where(in_block, rank_np.take(targets), 0).ravel()
        base = np.where(in_block, off + ranks.reshape(k, r), targets)  # layer 1
        cells = ranks.argsort()
        starts = np.searchsorted(ranks.take(cells), np.arange(k + 1))
        step = max(1, _PRUNE_ROWS // k)
        for j0 in range(1, k, step):
            j1 = min(j0 + step, k)
            shift = np.arange((j0 - 1) * k, (j1 - 1) * k, k, dtype=np.intc)
            layers = np.multiply.outer(shift, in_block)
            layers += base
            promoted = cells[starts[j0] : starts[j1]]  # the cells of ranks j0..j1-1
            q = ranks.take(promoted)
            layers.reshape(j1 - j0, -1)[q - j0, promoted] = off + q * (k + 1)
            write(layers.reshape(-1, r), off + (j0 - 1) * k)
        write(targets, off + (k - 1) * k)
    return table, kept


def _numpy_kernel(cells: int) -> bool:
    """Whether a translation of `cells` unpruned output cells runs the
    numpy kernel, by the rule in the module docstring.  The one place the
    kernel is chosen, so that a test can pin it."""
    return cells >= VECTORIZE_THRESHOLD or numpy_if_loaded(cells) is not None


def muller_to_buchi_maximal(
    a: DetAutomaton,
    t: MullerTable,
    analysis: SccAnalysis | None = None,
    *,
    prune: bool = True,
) -> BuchiTranslation:
    """Translate a maximal-loop Muller automaton into an equivalent
    deterministic Buchi automaton.

    States: every original state at layer 0, plus a (state, layer) grid per
    table block.  From layer 0 the run enters layer 1 when it hits the first
    state of a block; inside a block, reaching the next state in the fixed
    order advances the layer, leaving the block or completing the top layer
    resets to layer 0, everything else keeps the layer.  Accepting states are
    the top-layer corners, which recur iff the run sweeps a whole block
    forever.  Each block is swept in ascending state order.  The kernel is
    numpy from `VECTORIZE_THRESHOLD` output cells on, and from the smaller
    `numpy_if_loaded` crossover on when numpy is already imported; pure
    Python otherwise.  Both build the same automaton.  An output of more than
    `MAX_TRANSLATION_CELLS` cells raises SizeGuard before any table is
    allocated.
    """
    if analysis is None:
        analysis = analyze(a)
    report = check_maximal_loops(a, t, analysis)
    if not report.ok:
        raise PreconditionViolated(report.describe())

    n = a.n_states
    r = len(a.alphabet)
    orderings = [sorted(block) for block in report.blocks]
    offsets: list[int] = []
    total = n
    for members in orderings:
        offsets.append(total)
        total += len(members) ** 2
    if total * r > MAX_TRANSLATION_CELLS:
        raise SizeGuard(
            f"translation needs {total * r} cells ({total} states),"
            f" limit is {MAX_TRANSLATION_CELLS}"
        )

    block_of = [-1] * n
    rank0 = [-1] * n
    first_of = [-1] * n
    for bi, members in enumerate(orderings):
        for p, z in enumerate(members):
            block_of[z] = bi
            rank0[z] = p
        first_of[members[0]] = offsets[bi]

    # Per block, the top corner `(members[-1], k)`, which accepts.
    tops = [off + len(m) ** 2 - 1 for off, m in zip(offsets, orderings)]

    args = (a, orderings, offsets, block_of, rank0, first_of, total)
    kept: Sequence[int] = range(total)
    if _numpy_kernel(total * r):
        flat_table, kept = _layered_delta_numpy(*args, prune)
    else:
        flat_table = _layered_delta_python(*args)
        if prune:
            flat_table, kept = _prune_python(flat_table, r, a.initial)

    # kept is ascending, so renumbering of the few special states is a
    # binary search instead of a full index map.
    def new_index(old: int) -> int | None:
        i = bisect_right(kept, old) - 1
        return i if i >= 0 and kept[i] == old else None

    initial_new = new_index(a.initial)
    assert initial_new is not None
    accept_new = frozenset(i for c in tops if (i := new_index(c)) is not None)
    automaton = DetAutomaton(
        alphabet=a.alphabet,
        n_states=len(kept),
        initial=initial_new,
        delta=flat_table,
    )
    return BuchiTranslation(
        automaton=automaton,
        accepting=BuchiSet(accept_new),
        origin=LayeredOrigins(kept, n, orderings, offsets),
        unpruned_state_count=total,
        report=report,
    )
