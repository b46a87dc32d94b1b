"""Core data model for deterministic omega-automata.

A `DetAutomaton` is a complete deterministic transition structure over a
finite alphabet; acceptance is attached separately as either a `MullerTable`
(accept iff the Inf set of the run is a table entry) or a `BuchiSet` (accept
iff the Inf set meets the accepting states).  Infinite inputs are represented
by `LassoWord` values, the ultimately periodic words u * v^omega that are the
only finitely presentable omega-words.
"""

from __future__ import annotations

import operator
import sys
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import BadStateIndex, UnknownSymbol

Word = Sequence[str]

# Once numpy is imported, a table of this many (state, symbol) cells or more
# is cheaper to handle through it than in Python.  A bounds scan of 256
# cells takes about 8 us in Python and 3 us through numpy.  The whole
# layered translation of a chain-plus-random SCC over two letters (Python
# 3.11, numpy 2.4, 2-vCPU x86-64) is 7-14% faster in Python at 220-264
# output cells, and through numpy 14-18% faster at 312, 2x at 544 and 4.3x
# at 2112.
_NUMPY_CELLS = 256

# Most states an automaton may have: its transition table holds C ints.
MAX_STATES = 2**31 - 1


def _is_ndarray(values) -> bool:
    cls = type(values)
    return cls.__module__ == "numpy" and cls.__name__ == "ndarray"


def _as_delta(values) -> array:
    """Normalize a transition table to a compact array of C ints ('i', 4
    bytes a cell), the one table type of the package, without copying
    element by element when the source is already binary: a C-ordered
    `intc` numpy table is read through its buffer, with no transient copy.
    A numpy table must have an integer dtype; floats and bools are
    rejected, not cast.  A target that a C int cannot hold raises
    `BadStateIndex`, like any target out of range; a numpy table is
    checked before its cast, since `astype` would wrap it silently."""
    if isinstance(values, array) and values.typecode == "i":
        return values
    if _is_ndarray(values):
        if values.dtype.kind not in "iu":
            raise ValueError(
                f"transition table must hold integers, got dtype {values.dtype}"
            )
        np = sys.modules["numpy"]
        if not np.can_cast(values.dtype, np.intc) and values.size:
            # Read as unsigned, a negative value is 2**(bits - 1) or more.
            unsigned = values.view(values.dtype.str.replace("i", "u"))
            if int(unsigned.max()) > MAX_STATES:
                raise BadStateIndex("transition target out of range")
        table = values.astype(np.intc, copy=False).ravel()
        out = array("i")
        out.frombytes(memoryview(table).cast("B"))
        return out
    try:
        return array("i", values)
    except OverflowError:
        raise BadStateIndex("transition target out of range") from None


def numpy_if_loaded(cells: int):
    """The numpy module if it is already imported and a table of `cells`
    (state, symbol) cells is large enough to pay for going through it
    (`_NUMPY_CELLS`), else None.  Never imports numpy, so a process that
    has not loaded it keeps to pure Python."""
    np = sys.modules.get("numpy")
    return np if np is not None and cells >= _NUMPY_CELLS else None


def _max_target(source, delta: array) -> int:
    """Largest target of the nonempty table `delta` built from `source`,
    each target read as an unsigned int, so that a negative one reads as
    2**31 or more: one pass, `_max_target(...) < n_states`, checks both
    ends of the range.  A numpy table, or a table that `numpy_if_loaded`
    sends to numpy, is scanned through it: 0.23 ms against 53 ms in Python
    for the 1.27M cells of a large translation."""
    np = sys.modules["numpy"] if _is_ndarray(source) else numpy_if_loaded(len(delta))
    if np is not None:
        return int(np.frombuffer(delta, dtype=np.uintc).max())
    return max(memoryview(delta).cast("B").cast("I"))


def _as_int(value, what: str) -> int:
    """A plain int from an int or a numpy integer; bools and floats are
    rejected, not cast, since a file could not hold them."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class DetAutomaton:
    """Complete deterministic automaton: alphabet, states 0..n-1, initial
    state, and a total transition table.

    `delta` is stored flat in row-major order: the successor of state `s`
    under the symbol with index `x` sits at `delta[s * len(alphabet) + x]`.
    Any integer sequence may be passed in; it is normalized to a compact
    array of C ints, so an automaton has at most `MAX_STATES` = 2**31 - 1
    states.  Instances are immutable after construction and safe to share
    across threads.
    """

    alphabet: tuple[str, ...]
    n_states: int
    initial: int
    delta: Sequence[int]

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        object.__setattr__(self, "n_states", _as_int(self.n_states, "n_states"))
        object.__setattr__(self, "initial", _as_int(self.initial, "initial"))
        source = self.delta
        object.__setattr__(self, "delta", _as_delta(source))
        if len(self.alphabet) < 1:
            raise ValueError("alphabet must contain at least one symbol")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError("alphabet symbols must be distinct")
        for tok in self.alphabet:
            if not tok or any(c.isspace() for c in tok) or set(tok) & set("#{},:"):
                raise ValueError(f"invalid symbol token {tok!r}")
        if self.n_states < 1:
            raise ValueError("automaton needs at least one state")
        if self.n_states > MAX_STATES:
            raise ValueError(f"automaton has more than {MAX_STATES} states")
        if not 0 <= self.initial < self.n_states:
            raise BadStateIndex(f"initial state {self.initial} out of range")
        if len(self.delta) != self.n_states * len(self.alphabet):
            raise ValueError(
                f"transition table has {len(self.delta)} entries, "
                f"expected {self.n_states * len(self.alphabet)}"
            )
        if _max_target(source, self.delta) >= self.n_states:
            raise BadStateIndex("transition target out of range")

    def __hash__(self):
        return hash((self.alphabet, self.n_states, self.initial, self.delta.tobytes()))

    @cached_property
    def symbol_index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.alphabet)}


@dataclass(frozen=True)
class MullerTable:
    """A set of state sets; a run is accepted iff its Inf set is an entry.

    Entries may include sets that no run can realize; those are semantically
    inert and are kept verbatim.
    """

    entries: frozenset[frozenset[int]]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", frozenset(frozenset(e) for e in self.entries)
        )

    @classmethod
    def of(cls, *entries: Iterable[int]) -> "MullerTable":
        return cls(frozenset(frozenset(e) for e in entries))

    def validate_for(self, n_states: int) -> None:
        for entry in self.entries:
            for s in entry:
                if not 0 <= s < n_states:
                    raise BadStateIndex(f"table entry state {s} out of range")

    def __contains__(self, state_set) -> bool:
        return frozenset(state_set) in self.entries

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BuchiSet:
    """Accepting state set; a run is accepted iff its Inf set meets it."""

    accepting: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "accepting", frozenset(self.accepting))

    @classmethod
    def of(cls, *states: int) -> "BuchiSet":
        return cls(frozenset(states))

    def validate_for(self, n_states: int) -> None:
        for s in self.accepting:
            if not 0 <= s < n_states:
                raise BadStateIndex(f"accepting state {s} out of range")


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic omega-word prefix * period^omega.

    The period must be nonempty; the prefix may be empty.  Either part may be
    given as a plain string when all symbols are single characters.
    """

    prefix: tuple[str, ...]
    period: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "period", tuple(self.period))
        if not self.period:
            raise ValueError("lasso period must be nonempty")

    def symbol_at(self, position: int) -> str:
        """Symbol of the unrolled omega-word at a 0-based position."""
        if position < len(self.prefix):
            return self.prefix[position]
        return self.period[(position - len(self.prefix)) % len(self.period)]


def step(a: DetAutomaton, state: int, symbol: str) -> int:
    """One transition; raises on an invalid state or unknown symbol."""
    if not 0 <= state < a.n_states:
        raise BadStateIndex(f"state {state} out of range")
    try:
        x = a.symbol_index[symbol]
    except KeyError:
        raise UnknownSymbol(f"symbol {symbol!r} not in alphabet") from None
    return a.delta[state * len(a.alphabet) + x]


def run(a: DetAutomaton, state: int, word: Word | str) -> int:
    """Extended transition function: state reached from `state` on `word`."""
    delta = a.delta
    idx = a.symbol_index
    r = len(a.alphabet)
    s = state
    if not 0 <= s < a.n_states:
        raise BadStateIndex(f"state {state} out of range")
    for tok in word:
        try:
            s = delta[s * r + idx[tok]]
        except KeyError:
            raise UnknownSymbol(f"symbol {tok!r} not in alphabet") from None
    return s


def _period_columns(a: DetAutomaton, period_indices: Sequence[int]) -> list[memoryview]:
    """One column view of the table per period letter: the column of symbol
    x is `memoryview(a.delta)[x::r]`, so the successor of `s` under it is
    `column[s]`.  The views copy nothing and hold the table's buffer only
    until the walk that built them returns."""
    r = len(a.alphabet)
    table = memoryview(a.delta)
    by_symbol = [table[x::r] for x in range(r)]
    return [by_symbol[x] for x in period_indices]


def _cycle_states(a: DetAutomaton, state: int, period_indices: Sequence[int]) -> Iterator[int]:
    """States reached, in step order, by the run from `state` that reads the
    period (symbol indices) forever, over one round of its repeating cycle
    of anchors, the states where a period read begins.

    The run is walked once through the period's column views
    (`_period_columns`), one index a step, keeping every state it reaches
    in one trace and the trace index of each anchor, until an anchor
    repeats; the cycle is the trace from that anchor's first index on.
    Callers check the arguments."""
    columns = _period_columns(a, period_indices)
    seen: dict[int, int] = {}
    trace: list[int] = []
    append = trace.append
    s = state
    while s not in seen:
        seen[s] = len(trace)
        for column in columns:
            s = column[s]
            append(s)
    return islice(trace, seen[s], None)


def _cycle_meets(
    a: DetAutomaton, state: int, period_indices: Sequence[int], states: frozenset[int]
) -> bool:
    """Whether the run of `_cycle_states` visits `states` on its anchor
    cycle.  The same walk keeps one flag per period read, set when the read
    met `states`, instead of every state; the answer is the flags of the
    reads from the cycle's anchors, so a visit on a read from an anchor
    before the cycle does not count.  Callers check the arguments."""
    columns = _period_columns(a, period_indices)
    seen: dict[int, int] = {}
    hits = bytearray()
    s = state
    while s not in seen:
        seen[s] = len(hits)
        hit = 0
        for column in columns:
            s = column[s]
            if s in states:
                hit = 1
        hits.append(hit)
    return 1 in hits[seen[s]:]


def _lasso_start(a: DetAutomaton, w: LassoWord) -> tuple[int, list[int]]:
    """The state the run over `w` reaches after the prefix, and the
    period's symbol indices."""
    s = run(a, a.initial, w.prefix)
    try:
        period_idx = [a.symbol_index[tok] for tok in w.period]
    except KeyError as e:
        raise UnknownSymbol(f"symbol {e.args[0]!r} not in alphabet") from None
    return s, period_idx


def inf_set(a: DetAutomaton, w: LassoWord) -> frozenset[int]:
    """States visited infinitely often on the run over prefix * period^omega.

    The result is always a nonempty loop of the automaton.
    """
    return frozenset(_cycle_states(a, *_lasso_start(a, w)))


def accepts_muller(a: DetAutomaton, t: MullerTable, w: LassoWord) -> bool:
    """Muller acceptance: the Inf set of the run is a table entry."""
    return inf_set(a, w) in t.entries


def accepts_buchi(a: DetAutomaton, b: BuchiSet, w: LassoWord) -> bool:
    """Buchi acceptance: the Inf set of the run meets the accepting set.
    Decided by `_cycle_meets` from one flag per period read, without
    keeping the states of the walk or building the Inf set."""
    return _cycle_meets(a, *_lasso_start(a, w), b.accepting)
