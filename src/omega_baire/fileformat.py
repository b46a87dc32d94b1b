"""Line-oriented text format for automata.

Grammar (UTF-8, `#` starts a comment that runs to end of line, tokens are
whitespace-separated)::

    alphabet a b          # one or more distinct symbol tokens, none with {},:
    states 2              # number of states, indices 0..n-1
    initial 0
    acc-type muller       # or: buchi
    trans 0 a 0           # exactly one line per (state, symbol) pair
    trans 0 b 1
    trans 1 a 0
    trans 1 b 1
    accept {0}            # muller: one {i,j,...} group per table entry
                          # buchi: bare state list on a single accept line

Serialization is canonical: header lines in the order above, transitions
sorted by (state, symbol index), Muller entries one per `accept` line sorted
lexicographically by their sorted member list, and a single `accept` line for
Buchi sets.  Optional state-origin annotations are emitted as trailing
comment lines and are ignored when parsing.  Files are written a chunk of
a few thousand states at a time (`serialize_chunks`), so writing a file
need not hold the whole text.

Files written here are read by a checked fast path: at the first `trans`
line after a complete header, the next n*r lines are taken a chunk at a
time, their targets parsed and range-checked in bulk, and a chunk is kept
only if rendering those targets gives back exactly its text.  At the first
chunk that differs, the whole file goes through the line parser instead
(`_parse_general`), so any other valid file parses to the same result, and
an invalid one fails with the same error class, message and line.
"""

from __future__ import annotations

from array import array
from itertools import islice
from typing import Iterator, Mapping, Sequence

from .automaton import BuchiSet, DetAutomaton, LassoWord, MullerTable
from .errors import (
    BadHeader,
    BadStateIndex,
    DuplicateTransition,
    MissingTransition,
    UnknownSymbol,
)
from .to_buchi import LayeredOrigins

_HEADER_KEYS = ("alphabet", "states", "initial", "acc-type")
_RESERVED = frozenset("{},:")  # never in a symbol token (nor whitespace or '#')
# States per piece of the `trans` block, both when reading and when writing.
_CHUNK_STATES = 2048
_LAYERED_COMMENT = "# state %d: layered (%d, %d)\n"


def _parse_int(token: str, what: str, line: int, exc=BadHeader) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise exc(f"{what} must be an integer, got {token!r}", line) from None


def _parse_groups(payload: str, line: int) -> list[frozenset[int]]:
    """Parse `{i,j,...}` groups from a Muller accept-line payload."""
    groups: list[frozenset[int]] = []
    pos = 0
    text = payload
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "{":
            raise BadHeader(f"expected '{{' in accept group, got {text[pos]!r}", line)
        end = text.find("}", pos)
        if end < 0:
            raise BadHeader("unterminated accept group", line)
        body = text[pos + 1 : end].strip()
        members: set[int] = set()
        if body:
            for piece in body.split(","):
                piece = piece.strip()
                if not piece:
                    raise BadHeader("empty member in accept group", line)
                members.add(_parse_int(piece, "accept group member", line, BadStateIndex))
        groups.append(frozenset(members))
        pos = end + 1
    return groups


def parse_automaton(text: str | bytes) -> tuple[DetAutomaton, MullerTable | BuchiSet]:
    """Parse an automaton file into its transition structure and acceptance.

    Every error names the offending line; completeness of the transition
    table is enforced (no implicit sink completion).  A canonical `trans`
    block is read in bulk and checked against its own re-rendering; any
    other file goes through `_parse_general` and gets the same result.
    """
    return _parse_lines(_lines_of(text), fast=True)


def _parse_general(text: str | bytes) -> tuple[DetAutomaton, MullerTable | BuchiSet]:
    """`parse_automaton` with every line taken by the line parser."""
    return _parse_lines(_lines_of(text), fast=False)


def _lines_of(text: str | bytes) -> list[str]:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return text.splitlines()


def _parse_lines(
    lines: list[str], fast: bool
) -> tuple[DetAutomaton, MullerTable | BuchiSet]:
    alphabet: tuple[str, ...] | None = None
    n_states: int | None = None
    initial: int | None = None
    acc_type: str | None = None
    trans: dict[tuple[int, int], int] = {}
    block: array | None = None  # the whole table, when read in bulk
    muller_entries: list[frozenset[int]] = []
    buchi_states: set[int] = set()
    header_lines: dict[str, int] = {}
    symbol_index: dict[str, int] = {}

    numbered = enumerate(lines, start=1)
    for lineno, raw in numbered:
        if raw[:1] == "#":
            continue
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            continue
        key = tokens[0]

        if key in _HEADER_KEYS:
            if key in header_lines:
                raise BadHeader(f"duplicate {key} line (first on line {header_lines[key]})", lineno)
            header_lines[key] = lineno
            if key == "alphabet":
                if len(tokens) < 2:
                    raise BadHeader("alphabet needs at least one symbol", lineno)
                if len(set(tokens[1:])) != len(tokens) - 1:
                    raise BadHeader("alphabet symbols must be distinct", lineno)
                for tok in tokens[1:]:
                    if set(tok) & _RESERVED:
                        raise BadHeader(f"invalid symbol token {tok!r}", lineno)
                alphabet = tuple(tokens[1:])
                symbol_index = {tok: i for i, tok in enumerate(alphabet)}
            elif key == "states":
                if len(tokens) != 2:
                    raise BadHeader("states line takes exactly one count", lineno)
                n_states = _parse_int(tokens[1], "state count", lineno)
                if n_states < 1:
                    raise BadHeader("state count must be at least 1", lineno)
            elif key == "initial":
                if len(tokens) != 2:
                    raise BadHeader("initial line takes exactly one state", lineno)
                initial = _parse_int(tokens[1], "initial state", lineno, BadStateIndex)
            else:
                if len(tokens) != 2 or tokens[1] not in ("muller", "buchi"):
                    raise BadHeader("acc-type must be 'muller' or 'buchi'", lineno)
                acc_type = tokens[1]
            continue

        if key == "trans":
            missing = [k for k in _HEADER_KEYS if k not in header_lines]
            if missing:
                raise BadHeader(f"trans before header line(s): {', '.join(missing)}", lineno)
            assert alphabet is not None and n_states is not None
            if fast:
                if block is not None:  # a trans line after the block
                    return _parse_lines(lines, fast=False)
                block = _read_block(lines, lineno - 1, alphabet, n_states)
                if block is None:
                    return _parse_lines(lines, fast=False)
                skip = len(block) - 1  # the block's other lines
                next(islice(numbered, skip, skip), None)
                continue
            if len(tokens) != 4:
                raise BadHeader("trans line needs: trans <src> <symbol> <dst>", lineno)
            src = _parse_int(tokens[1], "source state", lineno, BadStateIndex)
            dst = _parse_int(tokens[3], "target state", lineno, BadStateIndex)
            if not 0 <= src < n_states:
                raise BadStateIndex(f"source state {src} out of range", lineno)
            if not 0 <= dst < n_states:
                raise BadStateIndex(f"target state {dst} out of range", lineno)
            if tokens[2] not in symbol_index:
                raise UnknownSymbol(f"symbol {tokens[2]!r} not in alphabet", lineno)
            pair = (src, symbol_index[tokens[2]])
            if pair in trans:
                raise DuplicateTransition(
                    f"transition for state {src} on {tokens[2]!r} already defined", lineno
                )
            trans[pair] = dst
            continue

        if key == "accept":
            missing = [k for k in _HEADER_KEYS if k not in header_lines]
            if missing:
                raise BadHeader(f"accept before header line(s): {', '.join(missing)}", lineno)
            assert n_states is not None and acc_type is not None
            if acc_type == "muller":
                payload = line.split(None, 1)[1] if len(tokens) > 1 else ""
                for group in _parse_groups(payload, lineno):
                    for s in group:
                        if not 0 <= s < n_states:
                            raise BadStateIndex(f"accept state {s} out of range", lineno)
                    muller_entries.append(group)
            else:
                for tok in tokens[1:]:
                    s = _parse_int(tok, "accept state", lineno, BadStateIndex)
                    if not 0 <= s < n_states:
                        raise BadStateIndex(f"accept state {s} out of range", lineno)
                    buchi_states.add(s)
            continue

        raise BadHeader(f"unknown keyword {key!r}", lineno)

    eof = len(lines) + 1
    missing_headers = [k for k in _HEADER_KEYS if k not in header_lines]
    if missing_headers:
        raise BadHeader(f"missing header line(s): {', '.join(missing_headers)}", eof)
    assert alphabet is not None and n_states is not None and initial is not None

    if not 0 <= initial < n_states:
        raise BadStateIndex(
            f"initial state {initial} out of range", header_lines["initial"]
        )
    if block is None:
        for s in range(n_states):
            for x, tok in enumerate(alphabet):
                if (s, x) not in trans:
                    raise MissingTransition(
                        f"no transition for state {s} on symbol {tok!r}", eof
                    )
        block = array(
            "q", [trans[s, x] for s in range(n_states) for x in range(len(alphabet))]
        )
    automaton = DetAutomaton(
        alphabet=alphabet, n_states=n_states, initial=initial, delta=block
    )
    if acc_type == "muller":
        return automaton, MullerTable(frozenset(muller_entries))
    return automaton, BuchiSet(frozenset(buchi_states))


def _read_block(
    lines: list[str], start: int, alphabet: tuple[str, ...], n_states: int
) -> array | None:
    """The transition table, if `lines[start:]` opens with exactly the
    canonical `trans` block of `n_states` states; None at the first chunk
    whose text differs from the rendering of its own targets."""
    r = len(alphabet)
    render = _TransRenderer(alphabet)
    table = array("q")
    for first in range(0, n_states, _CHUNK_STATES):
        stop = min(first + _CHUNK_STATES, n_states)
        text = "\n".join(lines[start + first * r : start + stop * r]) + "\n"
        tokens = text.split()
        if len(tokens) != 4 * r * (stop - first):
            return None
        try:
            targets = list(map(int, tokens[3::4]))
        except ValueError:
            return None
        if min(targets) < 0 or max(targets) >= n_states:
            return None
        if render(first, stop, targets) != text:
            return None
        table.extend(targets)
    return table


class _TransRenderer:
    """Renders the canonical `trans` lines of a run of states with one
    `%`-template per run length."""

    def __init__(self, alphabet: Sequence[str]):
        self._r = len(alphabet)
        self._row = "".join(
            "trans %d " + tok.replace("%", "%%") + " %d\n" for tok in alphabet
        )
        self._templates: dict[int, str] = {}

    def __call__(self, first: int, stop: int, targets: Sequence[int]) -> str:
        """Lines of states first..stop-1, whose successors are `targets`
        in row-major order."""
        count = stop - first
        template = self._templates.get(count)
        if template is None:
            template = self._templates[count] = self._row * count
        r = self._r
        args: list[int] = [0] * (2 * r * count)
        for x in range(r):
            args[2 * x :: 2 * r] = range(first, stop)
        args[1::2] = targets
        return template % tuple(args)


def _render_origin(value) -> str:
    if isinstance(value, frozenset | set):
        return f"merged scc {min(value)}" if value else "merged scc {}"
    if isinstance(value, tuple):
        base, layer = value
        return f"layered ({base}, {layer})"
    return f"from state {value}"


def _origin_chunks(origins: Mapping[int, object]) -> Iterator[str]:
    if isinstance(origins, LayeredOrigins):
        for first, bases, layer in origins.runs():
            for lo in range(0, len(bases), _CHUNK_STATES):
                part = bases[lo : lo + _CHUNK_STATES]
                args: list[int] = [layer] * (3 * len(part))
                args[0::3] = range(first + lo, first + lo + len(part))
                args[1::3] = part
                yield _LAYERED_COMMENT * len(part) % tuple(args)
        return
    keys = sorted(origins)
    for lo in range(0, len(keys), _CHUNK_STATES):
        yield "".join(
            f"# state {idx}: {_render_origin(origins[idx])}\n"
            for idx in keys[lo : lo + _CHUNK_STATES]
        )


def serialize_chunks(
    a: DetAutomaton,
    acc: MullerTable | BuchiSet,
    origins: Mapping[int, object] | None = None,
) -> Iterator[str]:
    """The canonical text in pieces of at most a few thousand lines, for
    writing a file without holding all of it; the acceptance and the origin
    keys are checked before the first piece is asked for."""
    acc.validate_for(a.n_states)
    # A LayeredOrigins has the keys 0..len-1, so its last key is enough.
    keys = range(len(origins))[-1:] if isinstance(origins, LayeredOrigins) else origins or ()
    bad = [s for s in keys if not 0 <= s < a.n_states]
    if bad:
        raise BadStateIndex(f"origin state {min(bad)} out of range")
    return _chunks(a, acc, origins)


def _chunks(a: DetAutomaton, acc, origins) -> Iterator[str]:
    yield (
        f"alphabet {' '.join(a.alphabet)}\n"
        f"states {a.n_states}\n"
        f"initial {a.initial}\n"
        f"acc-type {'muller' if isinstance(acc, MullerTable) else 'buchi'}\n"
    )
    r = len(a.alphabet)
    render = _TransRenderer(a.alphabet)
    for first in range(0, a.n_states, _CHUNK_STATES):
        stop = min(first + _CHUNK_STATES, a.n_states)
        yield render(first, stop, a.delta[first * r : stop * r])
    if isinstance(acc, MullerTable):
        yield "".join(
            "accept {" + ",".join(map(str, entry)) + "}\n"
            for entry in sorted(tuple(sorted(e)) for e in acc.entries)
        )
    else:
        yield ("accept " + " ".join(map(str, sorted(acc.accepting)))).rstrip() + "\n"
    if origins:
        yield from _origin_chunks(origins)


def serialize_automaton(
    a: DetAutomaton,
    acc: MullerTable | BuchiSet,
    origins: Mapping[int, object] | None = None,
) -> str:
    """Render in canonical form; `origins` become trailing comment lines."""
    return "".join(serialize_chunks(a, acc, origins))


def format_word(word: Sequence[str], alphabet: Sequence[str]) -> str:
    """Render a word: symbols concatenated when every alphabet token is a
    single character, comma-separated otherwise."""
    if all(len(tok) == 1 for tok in alphabet):
        return "".join(word)
    return ",".join(word)


def format_lasso(w: LassoWord, alphabet: Sequence[str]) -> str:
    """Render a lasso as `prefix:period`."""
    return f"{format_word(w.prefix, alphabet)}:{format_word(w.period, alphabet)}"


def parse_lasso_text(text: str, alphabet: Sequence[str]) -> LassoWord:
    """Parse `prefix:period`; single-character symbols may be concatenated,
    multi-character symbols are comma-separated.  The period must be
    nonempty and every symbol must be in the alphabet."""
    if text.count(":") != 1:
        raise ValueError(f"lasso must be written prefix:period, got {text!r}")
    raw_u, raw_v = text.split(":")
    single = all(len(tok) == 1 for tok in alphabet)

    def side(raw: str) -> tuple[str, ...]:
        if not raw:
            return ()
        if "," in raw:
            tokens = tuple(raw.split(","))
        elif single:
            tokens = tuple(raw)
        else:
            tokens = (raw,)
        for tok in tokens:
            if tok not in alphabet:
                raise ValueError(f"symbol {tok!r} not in alphabet")
        return tokens

    prefix, period = side(raw_u), side(raw_v)
    if not period:
        raise ValueError("lasso period must be nonempty")
    return LassoWord(prefix, period)
