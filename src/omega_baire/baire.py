"""Topological witnesses for regular omega-languages.

Given a Muller automaton, this module constructs in polynomial time an open
regular set E (by merging each terminal SCC into one absorbing state) and a
regular meagre superset F' of the symmetric difference F delta E.  F' is only
ever held as the complement of the terminal-SCC Muller automaton; no
operation expands the exponential complement table.  The module also hosts
the loop-density and meagreness classifiers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from .automaton import BuchiSet, DetAutomaton, MullerTable
from .errors import BadLoop
from .loops import SccAnalysis, analyze, is_loop, refined_loop
from .to_buchi import muller_to_buchi_maximal

StateOrigin = Mapping[int, "int | frozenset[int]"]


class TriState(enum.Enum):
    """Classifier verdict; UNDECIDED means the implemented criteria do not
    settle the query."""

    YES = "yes"
    NO = "no"
    UNDECIDED = "not-decided"


class LoopDensity(enum.Enum):
    DENSE = "dense"
    NOWHERE_DENSE = "nowhere-dense"


@dataclass(frozen=True)
class OpenWitness:
    """Quotient automaton with terminal SCCs merged to absorbing states.

    `origin` maps every new state to the original state it copies or to the
    terminal SCC it merges.
    """

    automaton: DetAutomaton
    table: MullerTable
    origin: StateOrigin = field(hash=False)


@dataclass(frozen=True)
class WeakBuchiWitness:
    """The open witness under Buchi acceptance; weak by construction (every
    loop is inside the accepting set or disjoint from it)."""

    automaton: DetAutomaton
    accepting: BuchiSet
    origin: StateOrigin = field(hash=False)


def build_open_witness(
    a: DetAutomaton, t: MullerTable, analysis: SccAnalysis | None = None
) -> OpenWitness:
    """Merge each terminal SCC into one absorbing state; keep the initial
    state as a distinct copy when it lies inside a terminal SCC.

    `origin` lists the new states: the states outside terminal SCCs in
    ascending order, the initial copy if any, then one merged state per
    terminal SCC in id order; `new[s]` renumbers state `s`.  The table holds
    {merged state} for each entry equal to a terminal SCC, and may be empty.
    """
    if analysis is None:
        analysis = analyze(a)
    t.validate_for(a.n_states)
    r = len(a.alphabet)
    scc_of, term = analysis.scc_of, analysis.terminal
    origin: list[int | frozenset[int]] = [s for s in range(a.n_states) if scc_of[s] not in term]
    if scc_of[a.initial] in term:
        origin.append(a.initial)
    origin.extend(analysis.terminal_sccs)
    new = [0] * a.n_states
    # A merged SCC comes after the initial copy, so it renumbers its states.
    for i, o in enumerate(origin):
        for s in o if isinstance(o, frozenset) else (o,):
            new[s] = i
    flat: list[int] = []
    for i, o in enumerate(origin):
        if isinstance(o, frozenset):
            flat += [i] * r
        else:
            flat += map(new.__getitem__, a.delta[o * r : o * r + r])
    entries = [frozenset({new[min(e)]}) for e in t.entries if analysis.is_terminal_set(e)]
    quotient = DetAutomaton(
        alphabet=a.alphabet, n_states=len(origin), initial=origin.index(a.initial), delta=flat
    )
    return OpenWitness(
        automaton=quotient,
        table=MullerTable(frozenset(entries)),
        origin=MappingProxyType(dict(enumerate(origin))),
    )


def build_meagre_complement(
    a: DetAutomaton, analysis: SccAnalysis | None = None
) -> tuple[DetAutomaton, MullerTable]:
    """The automaton unchanged with its terminal SCCs as the table.

    The complement of this language is the meagre superset used by the open
    witness; it is represented only through this pair and never expanded
    into an explicit complement table.
    """
    if analysis is None:
        analysis = analyze(a)
    return a, MullerTable(frozenset(analysis.terminal_sccs))


def build_weak_buchi_open(
    a: DetAutomaton, t: MullerTable, analysis: SccAnalysis | None = None
) -> WeakBuchiWitness:
    """Open witness under Buchi acceptance: same automaton, accepting set =
    the merged states of table entries that are terminal SCCs."""
    return _weak_buchi_of(build_open_witness(a, t, analysis))


def _weak_buchi_of(witness: OpenWitness) -> WeakBuchiWitness:
    """Read an open witness under Buchi acceptance: its table entries are
    singletons, so their states are the accepting set."""
    accepting = frozenset(next(iter(e)) for e in witness.table.entries)
    return WeakBuchiWitness(
        automaton=witness.automaton,
        accepting=BuchiSet(accepting),
        origin=witness.origin,
    )


@dataclass(frozen=True)
class BaireWitness:
    """The full witness bundle for one Muller automaton.

    The open language E is `open_muller` (equivalently `open_buchi`); the
    meagre superset F' of the symmetric difference is the complement of
    `meagre_complement_muller` (equivalently of `meagre_complement_buchi`)
    and is never materialized directly.
    """

    open_muller: tuple[DetAutomaton, MullerTable]
    meagre_complement_muller: tuple[DetAutomaton, MullerTable]
    open_buchi: tuple[DetAutomaton, BuchiSet]
    meagre_complement_buchi: tuple[DetAutomaton, BuchiSet]
    state_origin: StateOrigin = field(compare=False, hash=False)
    meagre_buchi_origin: Mapping[int, tuple[int, int]] = field(compare=False, hash=False)
    meagre_buchi_unpruned: int = 0


def build_baire_witness(
    a: DetAutomaton,
    t: MullerTable,
    analysis: SccAnalysis | None = None,
    *,
    prune: bool = True,
) -> BaireWitness:
    """Assemble all four witness automata for (a, t) from one SCC analysis
    and one open witness; the library, the CLI and the verifier all use this
    bundle."""
    if analysis is None:
        analysis = analyze(a)
    open_w = build_open_witness(a, t, analysis)
    a2, t2 = build_meagre_complement(a, analysis)
    weak = _weak_buchi_of(open_w)
    translation = muller_to_buchi_maximal(a2, t2, analysis, prune=prune)
    return BaireWitness(
        open_muller=(open_w.automaton, open_w.table),
        meagre_complement_muller=(a2, t2),
        open_buchi=(weak.automaton, weak.accepting),
        meagre_complement_buchi=(translation.automaton, translation.accepting),
        state_origin=open_w.origin,
        meagre_buchi_origin=translation.origin,
        meagre_buchi_unpruned=translation.unpruned_state_count,
    )


def classify_meagre(
    a: DetAutomaton, t: MullerTable, analysis: SccAnalysis | None = None
) -> TriState:
    """Meagre iff no table entry is a reachable terminal SCC.

    A terminal SCC entry is a loop exactly when it is reachable, so the
    entry-wise check needs no loop enumeration.
    """
    if analysis is None:
        analysis = analyze(a)
    for entry in t.entries:
        if analysis.is_terminal_set(entry) and not entry.isdisjoint(analysis.reachable):
            return TriState.NO
    return TriState.YES


def classify_openness(
    a: DetAutomaton, t: MullerTable, analysis: SccAnalysis | None = None
) -> TriState:
    """Open = YES when the loop entries are exactly all loops inside some set
    of terminal SCCs (the shape of languages `reach this terminal SCC`);
    otherwise UNDECIDED.  Deciding openness beyond this shape is out of
    scope.

    A loop inside a required terminal SCC that is not an entry is searched
    for by `refined_loop` with every state its own label: an SCC that is
    not an entry is such a loop, and one that is an entry is searched again
    with each of its states removed.  Only entries are expanded, each once,
    so the budget of one unit per entry never runs out, and the cost is
    polynomial in the table and the SCC sizes.
    """
    if analysis is None:
        analysis = analyze(a)
    # A loop lies inside one SCC; the entries that are loops must all lie
    # inside terminal ones.
    required = {analysis.scc_of[min(e)] for e in t.entries if is_loop(a, e, analysis)}
    if not required <= analysis.terminal:
        return TriState.UNDECIDED
    region = [s for tid in required for s in analysis.sccs[tid]]
    found = refined_loop(
        a, region, lambda c: True, lambda z: z not in t.entries, range(a.n_states), len(t.entries)
    )
    return TriState.YES if found is None else TriState.UNDECIDED


def classify_loop_density(
    a: DetAutomaton, s: int, z, analysis: SccAnalysis | None = None
) -> LoopDensity:
    """Density dichotomy for the omega-language of repeated loop sweeps from
    `s`: dense in the whole space iff the loop is a terminal SCC, nowhere
    dense otherwise."""
    if analysis is None:
        analysis = analyze(a)
    zs = frozenset(z)
    if s not in zs or not is_loop(a, zs, analysis):
        raise BadLoop(f"state {s} and set {sorted(zs)} do not form a loop")
    if analysis.is_terminal_set(zs):
        return LoopDensity.DENSE
    return LoopDensity.NOWHERE_DENSE
