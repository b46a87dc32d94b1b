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
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterable, Iterator, Sequence

from .errors import BadStateIndex, UnknownSymbol

Word = Sequence[str]


def _is_ndarray(values) -> bool:
    cls = type(values)
    return cls.__module__ == "numpy" and cls.__name__ == "ndarray"


def _as_delta(values) -> array:
    """Normalize a transition table to a compact int64 array without copying
    element by element when the source is already binary; a C-ordered int64
    numpy table is read through its buffer, with no transient copy.  A numpy
    table must have an integer dtype; floats and bools are rejected, not
    cast."""
    if isinstance(values, array) and values.typecode == "q":
        return values
    if _is_ndarray(values):
        if values.dtype.kind not in "iu":
            raise ValueError(
                f"transition table must hold integers, got dtype {values.dtype}"
            )
        table = values.astype("int64", copy=False).ravel()
        out = array("q")
        out.frombytes(memoryview(table).cast("B"))
        return out
    return array("q", values)


def _delta_bounds(source, delta: array) -> tuple[int, int]:
    """Smallest and largest target of the table `delta` built from `source`.
    A list or tuple is scanned as given, since its ints are already boxed
    where the array's would be boxed one by one; a numpy table is scanned
    through numpy, which is then already imported."""
    if _is_ndarray(source):
        import numpy as np

        view = np.frombuffer(delta, dtype=np.int64)
        return int(view.min()), int(view.max())
    values = source if isinstance(source, (list, tuple)) else delta
    return min(values), max(values)


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
    array.  Instances are immutable after construction and safe to share
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
        if not 0 <= self.initial < self.n_states:
            raise BadStateIndex(f"initial state {self.initial} out of range")
        if len(self.delta) != self.n_states * len(self.alphabet):
            raise ValueError(
                f"transition table has {len(self.delta)} entries, "
                f"expected {self.n_states * len(self.alphabet)}"
            )
        lo, hi = _delta_bounds(source, self.delta)
        if lo < 0 or hi >= self.n_states:
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


def _cycle_states(a: DetAutomaton, state: int, period_indices: Sequence[int]) -> Iterator[int]:
    """States reached, in step order, by the run from `state` that reads the
    period (symbol indices) forever, over one round of its repeating cycle
    of anchors, the states where a period read begins.

    The run is walked once, keeping every state it reaches in one trace and
    the trace index of each anchor, until an anchor repeats; the cycle is
    the trace from that anchor's first index on."""
    if not period_indices:
        raise ValueError("period must be nonempty")
    if not 0 <= state < a.n_states:
        raise BadStateIndex(f"state {state} out of range")
    r = len(a.alphabet)
    if min(period_indices) < 0 or max(period_indices) >= r:
        raise ValueError(f"period symbol index out of range 0..{r - 1}")
    delta = a.delta
    seen: dict[int, int] = {}
    trace: list[int] = []
    append = trace.append
    s = state
    while s not in seen:
        seen[s] = len(trace)
        for x in period_indices:
            s = delta[s * r + x]
            append(s)
    return islice(trace, seen[s], None)


def inf_from_state(a: DetAutomaton, state: int, period_indices: Sequence[int]) -> frozenset[int]:
    """Inf set of the run that starts at `state` and reads the nonempty
    period (given as symbol indices) forever: every state visited while
    reading one period from each anchor on the repeating anchor cycle.

    One walk, one trace entry per step.  The period map is iterated until
    an anchor repeats, at most n_states + 1 times by pigeonhole, so the time
    is Θ(anchors·|period|), anchors counting those before the cycle and on
    it; `inf_set` adds Θ(|prefix|) for the prefix.  Raises `ValueError` on
    an empty period or a symbol index outside 0..r-1, and `BadStateIndex` on
    a start state out of range."""
    return frozenset(_cycle_states(a, state, period_indices))


def _lasso_cycle(a: DetAutomaton, w: LassoWord) -> Iterator[int]:
    """`_cycle_states` of the run over `w` from the initial state."""
    s = run(a, a.initial, w.prefix)
    try:
        period_idx = [a.symbol_index[tok] for tok in w.period]
    except KeyError as e:
        raise UnknownSymbol(f"symbol {e.args[0]!r} not in alphabet") from None
    return _cycle_states(a, s, period_idx)


def inf_set(a: DetAutomaton, w: LassoWord) -> frozenset[int]:
    """States visited infinitely often on the run over prefix * period^omega.

    The result is always a nonempty loop of the automaton.
    """
    return frozenset(_lasso_cycle(a, w))


def accepts_muller(a: DetAutomaton, t: MullerTable, w: LassoWord) -> bool:
    """Muller acceptance: the Inf set of the run is a table entry."""
    return inf_set(a, w) in t.entries


def accepts_buchi(a: DetAutomaton, b: BuchiSet, w: LassoWord) -> bool:
    """Buchi acceptance: the Inf set of the run meets the accepting set.
    Tested on the states of the run's cycle as walked, without building the
    Inf set."""
    return not b.accepting.isdisjoint(_lasso_cycle(a, w))
