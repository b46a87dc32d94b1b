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

A file is read in one pass, a block of bytes at a time through an
incremental UTF-8 decoder, holding the transition table but neither the
text nor a list of its lines (`_read`).  Where text enters the reader,
each `str.splitlines` line break (CRLF, CR, U+2028, ...) becomes one
newline (`_newlines`).  The lines go through the line parser, but for two
kinds of run that cannot change the result: a piece of a few thousand
states of the `trans` block whose text is exactly the rendering of its
own targets, all in range, is taken in bulk, and a run of comment lines
is passed unsplit.  So a file written here, with any line breaks, is read
at bulk speed, and any other file (other line order, spacing, comments, a
pipe) gets the same result, error and line number as the line parser's.
"""

from __future__ import annotations

import codecs
import re
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
# Bytes per read of a file, and characters per batch of lines to split.
_READ_BYTES = 1 << 17
# The line breaks of `str.splitlines` but "\n" and "\r".
_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# Ends a run of comment lines: a newline not followed by '#'.
_COMMENT_RUN_END = re.compile("\n[^#]")
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


def _parse_groups(text: str, line: int) -> list[frozenset[int]]:
    """Parse `{i,j,...}` groups from the payload `text` of a Muller accept line."""
    groups: list[frozenset[int]] = []
    pos = 0
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

    The result is `_LineParser`'s on the text's `str.splitlines` lines, read
    in one pass (`_read`).  Every error names the offending line; bytes
    that are not UTF-8 name the line of the first bad byte, over any other
    error.  Completeness of the transition table is enforced (no implicit
    sink completion).
    """
    if isinstance(text, str):
        return _read(iter((_newlines(text),)))
    data = memoryview(text)
    return _read(_decoded(data[i : i + _READ_BYTES] for i in range(0, len(data), _READ_BYTES)))


def read_automaton(path: str | Path) -> _Parsed:
    """`parse_automaton` of the file at `path`, which may be a pipe, read
    once, a block of bytes at a time."""
    with open(path, "rb") as f:
        return _read(_decoded(iter(lambda: f.read(_READ_BYTES), b"")))


def _decoded(blocks: Iterable[bytes]) -> Iterator[str]:
    """The UTF-8 text of `blocks` through `_newlines`, a piece per block; a
    character split between blocks, or a CR that ends one, comes out in
    the later piece.  At a byte that is not UTF-8 the text before it comes
    out, then a `FormatError` with no line, which `_Cursor.fill` adds."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    held = ""  # a "\r" that may open a "\r\n"
    try:
        for block in blocks:
            text = held + decoder.decode(block)
            held = text[-1:] if text.endswith("\r") else ""
            yield _newlines(text[: len(text) - len(held)])
        yield _newlines(held + decoder.decode(b"", True))
    except UnicodeDecodeError as e:
        yield _newlines(held + e.object[: e.start].decode("utf-8"))
        raise FormatError(f"invalid UTF-8 (byte 0x{e.object[e.start]:02x}: {e.reason})") from None


def _newlines(text: str) -> str:
    """`text` with each `str.splitlines` line break written as one newline,
    or `text` itself if it has no other break.  Each break is whitespace
    to `str.split`, so no line changes its tokens."""
    if "\r" in text:  # a search for "\r\n" itself takes some 80 times longer
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    wide = not text.isascii()  # a flag of the string: no scan
    for brk in _BREAKS:
        if (wide or brk.isascii()) and brk in text:
            text = text.replace(brk, "\n")
    return text


class _LineParser:
    """Takes a file one line at a time; `result` checks what only the
    whole file shows and builds the automaton.  Transitions go into
    `table` in table order; one that comes early waits in `early` until
    the cells before it are in."""

    def __init__(self) -> None:
        self.alphabet: tuple[str, ...] | None = None
        self.n_states: int | None = None
        self.initial: int | None = None
        self.acc_type: str | None = None
        self.table = array("i")
        self.early: dict[int, int] = {}
        self.muller_entries: list[frozenset[int]] = []
        self.buchi_states: set[int] = set()
        self.header_lines: dict[str, int] = {}
        self.symbol_index: dict[str, int] = {}

    def line(self, lineno: int, raw: str) -> str | None:
        """Take line `lineno`, with or without its line break; returns its
        keyword, or None for a blank or comment line."""
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
            cell = src * len(self.symbol_index) + self.symbol_index[tokens[2]]
            table, early = self.table, self.early
            if cell < len(table) or cell in early:
                raise DuplicateTransition(
                    f"transition for state {src} on {tokens[2]!r} already defined", lineno
                )
            early[cell] = dst
            while len(table) in early:
                table.append(early.pop(len(table)))
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

    def result(self, eof: int) -> _Parsed:
        """The parsed automaton; `eof` is the line number for the errors
        that the end of the file shows (a missing header or transition)."""
        missing_headers = [k for k in _HEADER_KEYS if k not in self.header_lines]
        if missing_headers:
            raise BadHeader(f"missing header line(s): {', '.join(missing_headers)}", eof)
        alphabet, n_states, initial = self.alphabet, self.n_states, self.initial
        assert alphabet is not None and n_states is not None and initial is not None
        if not 0 <= initial < n_states:
            line = self.header_lines["initial"]
            raise BadStateIndex(f"initial state {initial} out of range", line)
        if len(self.table) < n_states * len(alphabet):
            s, x = divmod(len(self.table), len(alphabet))
            raise MissingTransition(f"no transition for state {s} on symbol {alphabet[x]!r}", eof)
        automaton = DetAutomaton(alphabet, n_states, initial, self.table)
        if self.acc_type == "muller":
            return automaton, MullerTable(frozenset(self.muller_entries))
        return automaton, BuchiSet(frozenset(self.buchi_states))


class _Cursor:
    """The lines of text that arrives in blocks, with no line break but
    newline (`_newlines`).  `buf[pos:]` is the text not yet handed out;
    `pos` is at the start of a line, and `lineno` counts the lines before it."""

    def __init__(self, blocks: Iterator[str]):
        self._blocks = blocks
        self.buf, self.pos, self.lineno = "", 0, 0
        self.ended = False  # whether `buf` holds the rest of the text

    def fill(self, size: int) -> None:
        """Read blocks until `size` characters follow `pos`, or to the end;
        reading drops the text before `pos`.  A bad byte in a block is a
        `FormatError` that names its line."""
        have = len(self.buf) - self.pos
        if have >= size or self.ended:
            return
        parts = [self.buf[self.pos :]] if have else []
        try:
            for block in self._blocks:
                parts.append(block)
                have += len(block)
                if have >= size:
                    break
            else:
                self.ended = True
        except FormatError as e:
            # The last part is the text before the bad byte.
            line = self.lineno + 1 + sum(part.count("\n") for part in parts)
            raise FormatError(str(e), line) from None
        self.buf = "".join(parts)  # one part is kept as it is, not copied
        self.pos = 0

    def lines(self) -> list[str]:
        """The next lines, each with its newline, after the run of comment
        lines that `skip_comments` passes; [] at the end of the text.  The
        lines stop before the next comment line, so that its run is passed
        too."""
        self.skip_comments()
        size = _READ_BYTES
        while True:
            self.fill(size)
            buf, pos = self.buf, self.pos
            end = min(len(buf), pos + size)
            whole = self.ended and end == len(buf)  # the last line ends at `end`
            cut = buf.find("\n#", pos, end) + 1
            if cut:
                end, whole = cut, True
            lines = buf[pos:end].splitlines(True)
            if lines and not whole and lines[-1][-1] != "\n":
                lines.pop()  # it may go on in text to come
            if lines or whole:
                self.pos = pos + sum(map(len, lines))
                self.lineno += len(lines)
                return lines
            size *= 2

    def skip_comments(self) -> None:
        """Pass the run of lines at `pos` that start with '#'."""
        size = _READ_BYTES
        while True:
            self.fill(size)
            buf, pos = self.buf, self.pos
            if not buf.startswith("#", pos):
                return
            limit = min(len(buf), pos + size)
            run = _COMMENT_RUN_END.search(buf, pos, limit)
            # Past the run's last whole line within `limit`.
            end = run.start() + 1 if run else buf.rfind("\n", pos, limit) + 1
            if end > pos:
                self.lineno += buf.count("\n", pos, end)
                self.pos, size = end, _READ_BYTES
            elif self.ended and limit == len(buf):
                return  # the line at `pos` ends the text
            else:
                size *= 2  # the line at `pos` goes on past `limit`

    def drain(self) -> None:
        """Read the rest of the text a block at a time, so that a bad byte
        in it still raises its `FormatError`."""
        while not self.ended:
            self.fill(len(self.buf) - self.pos + 1)
            self.lineno += self.buf.count("\n", self.pos)
            self.pos = len(self.buf)


def _read(blocks: Iterator[str]) -> _Parsed:
    """What `_LineParser` makes of the `str.splitlines` lines of the text
    in `blocks`, but for the runs that `_read_pieces` and
    `_Cursor.skip_comments` pass; after an error the rest of the text is
    still read, as a bad byte in it goes first."""
    text = _Cursor(blocks)
    parser = _LineParser()
    table = parser.table
    target = 0  # the table length at which to look for pieces to read in bulk
    try:
        while batch := text.lines():
            start = text.lineno - len(batch)
            for lineno, raw in enumerate(batch, start + 1):
                parser.line(lineno, raw)
                if len(table) >= target and len(parser.header_lines) == len(_HEADER_KEYS):
                    break
            else:
                continue
            text.pos -= sum(map(len, batch[lineno - start :]))  # give back the rest
            text.lineno = lineno
            del batch  # before the bulk read
            target = _read_pieces(text, parser)
        return parser.result(text.lineno + 1)
    except FormatError:
        text.drain()
        raise


def _read_pieces(text: _Cursor, parser: _LineParser) -> int:
    """Take the `trans` lines at the cursor a piece of `_CHUNK_STATES`
    states at a time, while the table is at the start of a piece, no line
    came early, and the piece is exactly the rendering of its own targets,
    all in range: the line parser would append them in turn.  A piece in
    doubt is left to it; returns the table length at which to try again."""
    alphabet, n_states = parser.alphabet, parser.n_states
    assert alphabet is not None and n_states is not None
    r = len(alphabet)
    table = parser.table
    step = r * _CHUNK_STATES
    render = _TransRenderer(alphabet)
    # Characters of the longest line "trans <src> <symbol> <target>\n" but its <src>.
    widest = 9 + max(map(len, alphabet)) + len(str(n_states - 1))
    while len(table) % step == 0 and len(table) < n_states * r and not parser.early:
        first = len(table) // r
        stop = min(first + _CHUNK_STATES, n_states)
        count = r * (stop - first)
        size = count * (widest + len(str(stop - 1)))
        text.fill(size)
        buf, pos = text.buf, text.pos
        # A canonical piece lies within `size` characters; its targets are
        # every fourth of its first 4 * count tokens.
        try:
            targets = list(map(int, buf[pos : pos + size].split()[3 : 4 * count : 4]))
        except ValueError:
            break
        if len(targets) != count or min(targets) < 0 or max(targets) >= n_states:
            break
        piece = render(first, stop, targets)
        if not buf.startswith(piece, pos):
            break
        text.pos = pos + len(piece)
        text.lineno += count
        table.extend(targets)
    return (len(table) // step + 1) * step


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
