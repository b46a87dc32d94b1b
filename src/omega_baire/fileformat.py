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

Files written here are read by a checked streaming reader
(`_read_canonical`), which takes the text in blocks (a file is read a
block of bytes at a time through an incremental UTF-8 decoder) and holds
no list of lines and no second copy of the text:
- the four header lines and the `accept` lines go through the line parser;
- the `trans` block is cut into pieces of whole states, and a piece is
  kept only if rendering its targets gives back exactly its text; the
  targets go into one array, which `DetAutomaton` range-checks;
- the origin-comment tail is accepted unsplit if every line starts with `#`;
- a block with a line break other than newline is doubted, so the lines
  split at newline are those of `str.splitlines`.
At the first doubt the whole input goes through the line parser instead
(`_parse_general`), so any other valid file parses to the same result,
and an invalid one fails with the same error class, message and line.
"""

from __future__ import annotations

import codecs
from array import array
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .automaton import MAX_STATES, BuchiSet, DetAutomaton, LassoWord, MullerTable
from .errors import (
    BadHeader,
    BadStateIndex,
    DuplicateTransition,
    FormatError,
    MissingTransition,
    UnknownSymbol,
)
from .to_buchi import LayeredOrigins

_HEADER_KEYS = ("alphabet", "states", "initial", "acc-type")
_RESERVED = frozenset("{},:")  # never in a symbol token (nor whitespace or '#')
# States per piece of the `trans` block, both when reading and when writing.
_CHUNK_STATES = 2048
# Bytes per read of a file, and characters per piece of a comment tail.
_READ_BYTES = 1 << 17
# The characters other than "\n" at which `str.splitlines` ends a line.
_OTHER_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_LAYERED_COMMENT = "# state %d: layered (%d, %d)\n"

_Parsed = tuple[DetAutomaton, MullerTable | BuchiSet]


def parse_integer(token: str) -> int | None:
    """`token` as an int if it is written as every integer of a file, and of
    a command-line option, must be: ASCII digits with an optional leading
    '-'; else None.  `int` alone would also take '+', '_', spaces and
    non-ASCII digits."""
    if token.isascii() and token.removeprefix("-").isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than `int` converts
            pass
    return None


def _parse_int(token: str, what: str, line: int, exc=BadHeader) -> int:
    value = parse_integer(token)
    if value is None:
        raise exc(f"{what} must be an integer, got {token!r}", line)
    return value


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


def parse_automaton(text: str | bytes) -> _Parsed:
    """Parse an automaton file into its transition structure and acceptance.

    Every error names the offending line, bytes that are not UTF-8 that
    of the first bad byte; completeness of the transition table is
    enforced (no implicit sink completion).  A canonical file is
    read by `_read_canonical` and checked against its own re-rendering;
    any other file goes through `_parse_general` and gets the same result.
    """
    if isinstance(text, str):
        blocks: Iterator[str] = iter((text,))
    else:
        data = memoryview(text)
        blocks = _decoded(
            data[i : i + _READ_BYTES] for i in range(0, len(data), _READ_BYTES)
        )
    return _read_canonical(blocks) or _parse_general(text)


def read_automaton(path: str | Path) -> _Parsed:
    """`parse_automaton` of the file at `path`, streamed a block at a time;
    the file is read again, whole, only if `_parse_general` must read it.
    A pipe or other unseekable file is read whole at once."""
    with open(path, "rb") as f:
        if not f.seekable():
            return parse_automaton(f.read())
        parsed = _read_canonical(_decoded(iter(lambda: f.read(_READ_BYTES), b"")))
        if parsed is None:
            f.seek(0)
            parsed = _parse_general(f.read())
    return parsed


def _parse_general(text: str | bytes) -> _Parsed:
    """`parse_automaton` with every line taken by the line parser."""
    if isinstance(text, bytes):
        text = _decode(text)
    lines = text.splitlines()
    parser = _LineParser()
    for lineno, raw in enumerate(lines, start=1):
        parser.line(lineno, raw)
    return parser.result(len(lines) + 1)


def _decode(data: bytes) -> str:
    """The UTF-8 text of `data`; a `FormatError` names the line of the
    first byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        # The bytes before e.start decode; the bad byte opens a line if they
        # end with a line break.
        line = len((data[: e.start].decode("utf-8") + "x").splitlines())
        raise FormatError(
            f"invalid UTF-8 (byte 0x{data[e.start]:02x}: {e.reason})", line
        ) from None


def _decoded(blocks: Iterable[bytes]) -> Iterator[str]:
    """The UTF-8 text of `blocks`, a piece per block; a character split
    between blocks comes out whole in the later piece."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    for block in blocks:
        yield decoder.decode(block)
    yield decoder.decode(b"", True)


class _LineParser:
    """Takes a file one line at a time; `result` checks what only the
    whole file shows and builds the automaton."""

    def __init__(self) -> None:
        self.alphabet: tuple[str, ...] | None = None
        self.n_states: int | None = None
        self.initial: int | None = None
        self.acc_type: str | None = None
        self.trans: dict[tuple[int, int], int] = {}
        self.muller_entries: list[frozenset[int]] = []
        self.buchi_states: set[int] = set()
        self.header_lines: dict[str, int] = {}
        self.symbol_index: dict[str, int] = {}

    def line(self, lineno: int, raw: str) -> str | None:
        """Take line `lineno`; returns its keyword, or None for a blank or
        comment line."""
        if raw[:1] == "#":
            return None
        line = raw.split("#", 1)[0]
        tokens = line.split()
        if not tokens:
            return None
        key = tokens[0]

        if key in _HEADER_KEYS:
            if key in self.header_lines:
                raise BadHeader(
                    f"duplicate {key} line (first on line {self.header_lines[key]})", lineno
                )
            self.header_lines[key] = lineno
            if key == "alphabet":
                if len(tokens) < 2:
                    raise BadHeader("alphabet needs at least one symbol", lineno)
                if len(set(tokens[1:])) != len(tokens) - 1:
                    raise BadHeader("alphabet symbols must be distinct", lineno)
                for tok in tokens[1:]:
                    if set(tok) & _RESERVED:
                        raise BadHeader(f"invalid symbol token {tok!r}", lineno)
                self.alphabet = tuple(tokens[1:])
                self.symbol_index = {tok: i for i, tok in enumerate(self.alphabet)}
            elif key == "states":
                if len(tokens) != 2:
                    raise BadHeader("states line takes exactly one count", lineno)
                self.n_states = _parse_int(tokens[1], "state count", lineno)
                if self.n_states < 1:
                    raise BadHeader("state count must be at least 1", lineno)
                if self.n_states > MAX_STATES:
                    raise BadHeader(f"state count must be at most {MAX_STATES}", lineno)
            elif key == "initial":
                if len(tokens) != 2:
                    raise BadHeader("initial line takes exactly one state", lineno)
                self.initial = _parse_int(tokens[1], "initial state", lineno, BadStateIndex)
            else:
                if len(tokens) != 2 or tokens[1] not in ("muller", "buchi"):
                    raise BadHeader("acc-type must be 'muller' or 'buchi'", lineno)
                self.acc_type = tokens[1]
            return key

        if key not in ("trans", "accept"):
            raise BadHeader(f"unknown keyword {key!r}", lineno)
        missing = [k for k in _HEADER_KEYS if k not in self.header_lines]
        if missing:
            raise BadHeader(f"{key} before header line(s): {', '.join(missing)}", lineno)
        n_states = self.n_states
        assert n_states is not None

        if key == "trans":
            if len(tokens) != 4:
                raise BadHeader("trans line needs: trans <src> <symbol> <dst>", lineno)
            src = _parse_int(tokens[1], "source state", lineno, BadStateIndex)
            dst = _parse_int(tokens[3], "target state", lineno, BadStateIndex)
            if not 0 <= src < n_states:
                raise BadStateIndex(f"source state {src} out of range", lineno)
            if not 0 <= dst < n_states:
                raise BadStateIndex(f"target state {dst} out of range", lineno)
            if tokens[2] not in self.symbol_index:
                raise UnknownSymbol(f"symbol {tokens[2]!r} not in alphabet", lineno)
            pair = (src, self.symbol_index[tokens[2]])
            if pair in self.trans:
                raise DuplicateTransition(
                    f"transition for state {src} on {tokens[2]!r} already defined", lineno
                )
            self.trans[pair] = dst
        elif self.acc_type == "muller":
            payload = line.split(None, 1)[1] if len(tokens) > 1 else ""
            for group in _parse_groups(payload, lineno):
                for s in group:
                    if not 0 <= s < n_states:
                        raise BadStateIndex(f"accept state {s} out of range", lineno)
                self.muller_entries.append(group)
        else:
            for tok in tokens[1:]:
                s = _parse_int(tok, "accept state", lineno, BadStateIndex)
                if not 0 <= s < n_states:
                    raise BadStateIndex(f"accept state {s} out of range", lineno)
                self.buchi_states.add(s)
        return key

    def result(self, eof: int | None, table: array | None = None) -> _Parsed:
        """The parsed automaton; `table` is the transition table when it was
        read in bulk, and `eof` the line number for the errors that the end
        of the file shows (a missing header or transition)."""
        missing_headers = [k for k in _HEADER_KEYS if k not in self.header_lines]
        if missing_headers:
            raise BadHeader(f"missing header line(s): {', '.join(missing_headers)}", eof)
        alphabet, n_states, initial = self.alphabet, self.n_states, self.initial
        assert alphabet is not None and n_states is not None and initial is not None
        if not 0 <= initial < n_states:
            raise BadStateIndex(
                f"initial state {initial} out of range", self.header_lines["initial"]
            )
        if table is None:
            trans = self.trans
            for s in range(n_states):
                for x, tok in enumerate(alphabet):
                    if (s, x) not in trans:
                        raise MissingTransition(
                            f"no transition for state {s} on symbol {tok!r}", eof
                        )
            table = array(
                "i", [trans[s, x] for s in range(n_states) for x in range(len(alphabet))]
            )
        automaton = DetAutomaton(
            alphabet=alphabet, n_states=n_states, initial=initial, delta=table
        )
        if self.acc_type == "muller":
            return automaton, MullerTable(frozenset(self.muller_entries))
        return automaton, BuchiSet(frozenset(self.buchi_states))


class _Cursor:
    """Text that arrives in blocks, read from the offset `pos` into `buf`;
    reading further drops the text before `pos`."""

    def __init__(self, blocks: Iterator[str]):
        self._blocks = blocks
        self.buf = ""
        self.pos = 0

    def fill(self, size: int) -> None:
        """Read blocks until `size` characters follow `pos`, or to the end."""
        have = len(self.buf) - self.pos
        if have >= size:
            return
        parts = [self.buf[self.pos :]] if have else []
        for block in self._blocks:
            parts.append(block)
            have += len(block)
            if have >= size:
                break
        self.buf = "".join(parts)  # one part is kept as it is, not copied
        self.pos = 0

    def line(self) -> str | None:
        """The next line without its newline; None at the end of the text."""
        end = self.buf.find("\n", self.pos)
        while end < 0:
            have = len(self.buf) - self.pos
            self.fill(2 * have + 1)
            if len(self.buf) - self.pos == have:  # the text has ended
                if not have:
                    return None
                end = len(self.buf)
                break
            end = self.buf.find("\n", self.pos + have)
        line = self.buf[self.pos : end]
        self.pos = min(end + 1, len(self.buf))
        return line

    def rest(self) -> Iterator[str]:
        """The text after `pos`, in pieces of at most `_READ_BYTES`
        characters or of a block each."""
        buf, pos = self.buf, self.pos
        self.buf, self.pos = "", 0
        for start in range(pos, len(buf), _READ_BYTES):
            yield buf[start : start + _READ_BYTES]
        yield from self._blocks


def _read_canonical(blocks: Iterator[str]) -> _Parsed | None:
    """What `_parse_general` makes of the text in `blocks`, if the text is
    laid out as `serialize_chunks` writes it: the four header lines, the
    canonical `trans` block, then `accept` or blank lines and a tail of
    comment lines.  None at the first doubt, at which the caller parses
    the whole input with `_parse_general`."""
    text = _Cursor(_newline_breaks_only(blocks))
    parser = _LineParser()
    try:
        for lineno, key in enumerate(_HEADER_KEYS, start=1):
            line = text.line()
            if line is None or parser.line(lineno, line) != key:
                return None
        assert parser.alphabet is not None and parser.n_states is not None
        table = _read_trans(text, parser.alphabet, parser.n_states)
        if table is None:
            return None
        lineno = len(_HEADER_KEYS) + len(table)
        while (line := text.line()) is not None:
            lineno += 1
            if line[:1] == "#":
                if not _comments_only(text.rest()):
                    return None
                break
            if parser.line(lineno, line) not in (None, "accept"):
                return None
        return parser.result(None, table)
    except (FormatError, ValueError, OverflowError):
        # A line the line parser rejects, a target that is not an integer,
        # past a C int (OverflowError from the table) or not in range
        # (BadStateIndex from DetAutomaton), a line break other than
        # newline, or bytes that are not UTF-8 (a ValueError).
        return None


def _newline_breaks_only(blocks: Iterator[str]) -> Iterator[str]:
    """`blocks`, but a ValueError at the first one that holds a line break
    other than newline: in text without one, the lines split at "\\n" are
    the lines of `str.splitlines`."""
    for block in blocks:
        if any(c in block for c in _OTHER_BREAKS):
            raise ValueError("line break other than newline")
        yield block


def _read_trans(text: _Cursor, alphabet: tuple[str, ...], n_states: int) -> array | None:
    """The transition table, if the text at the cursor opens with exactly
    the canonical `trans` block of `n_states` states; None at the first
    piece of `_CHUNK_STATES` states whose text is not the rendering of its
    own targets."""
    r = len(alphabet)
    render = _TransRenderer(alphabet)
    # Characters of the longest line "trans <src> <symbol> <target>\n" but
    # for its source state.
    widest = 9 + max(map(len, alphabet)) + len(str(n_states - 1))
    table = array("i")
    for first in range(0, n_states, _CHUNK_STATES):
        stop = min(first + _CHUNK_STATES, n_states)
        count = r * (stop - first)
        size = count * (widest + len(str(stop - 1)))
        text.fill(size)
        buf, pos = text.buf, text.pos
        # A canonical piece lies within `size` characters; its targets are
        # every fourth of its first 4 * count tokens.
        targets = list(map(int, buf[pos : pos + size].split()[3 : 4 * count : 4]))
        if len(targets) != count:
            return None
        piece = render(first, stop, targets)
        if not buf.startswith(piece, pos):
            return None
        text.pos = pos + len(piece)
        table.extend(targets)
    return table


def _comments_only(parts: Iterable[str]) -> bool:
    """Whether the text of `parts`, which starts at the start of a line,
    is lines that each begin with `#`."""
    line_start = True
    for part in parts:
        if not part:
            continue
        if line_start and part[0] != "#":
            return False
        line_start = part[-1] == "\n"
        # Every newline but a last one is followed by '#'.
        if part.count("\n#") != part.count("\n") - line_start:
            return False
    return True


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
