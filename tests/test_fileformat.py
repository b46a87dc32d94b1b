import math
import os
import random
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omega_baire import (
    BadHeader,
    BadStateIndex,
    BuchiSet,
    DetAutomaton,
    DuplicateTransition,
    FormatError,
    LassoWord,
    MissingTransition,
    MullerTable,
    UnknownSymbol,
    build_meagre_complement,
    build_open_witness,
    format_lasso,
    format_word,
    muller_to_buchi_maximal,
    parse_automaton,
    parse_lasso_text,
    serialize_automaton,
)
from omega_baire import fileformat
from omega_baire.automaton import MAX_STATES
from omega_baire.fileformat import _CHUNK_STATES, read_automaton, serialize_chunks
from omega_baire.to_buchi import LayeredOrigins
from conftest import pinned_kernel, random_automaton

EX1_TEXT = """\
alphabet a b
states 2
initial 0
acc-type muller
trans 0 a 0
trans 0 b 1
trans 1 a 0
trans 1 b 1
accept {0}
"""

EX2_TEXT = """\
alphabet a b
states 3
initial 0
acc-type muller
trans 0 a 1
trans 0 b 2
trans 1 a 1
trans 1 b 1
trans 2 a 2
trans 2 b 2
accept {1}
"""


def tokens_of(text: str) -> list[str]:
    out = []
    for line in text.splitlines():
        out.extend(line.split("#", 1)[0].split())
    return out


class TestParse:
    def test_ex1_round_trip(self, ex1):
        a, acc = parse_automaton(EX1_TEXT)
        assert a == ex1
        assert isinstance(acc, MullerTable)
        assert acc.entries == frozenset({frozenset({0})})

    def test_parse_bytes(self, ex1):
        a, _ = parse_automaton(EX1_TEXT.encode())
        assert a == ex1

    def test_missing_transition(self):
        text = EX1_TEXT.replace("trans 1 b 1\n", "")
        with pytest.raises(MissingTransition) as exc:
            parse_automaton(text)
        assert "state 1" in str(exc.value) and "'b'" in str(exc.value)
        assert exc.value.line is not None

    def test_duplicate_transition(self):
        text = EX1_TEXT.replace("trans 1 b 1", "trans 1 b 1\ntrans 1 b 0")
        with pytest.raises(DuplicateTransition) as exc:
            parse_automaton(text)
        assert exc.value.line == 9

    def test_unknown_symbol(self):
        text = EX1_TEXT.replace("trans 0 a 0", "trans 0 c 0")
        with pytest.raises(UnknownSymbol) as exc:
            parse_automaton(text)
        assert exc.value.line == 5

    def test_bad_state_index(self):
        text = EX1_TEXT.replace("trans 0 a 0", "trans 0 a 7")
        with pytest.raises(BadStateIndex) as exc:
            parse_automaton(text)
        assert exc.value.line == 5

    def test_accept_state_out_of_range(self):
        text = EX1_TEXT.replace("accept {0}", "accept {5}")
        with pytest.raises(BadStateIndex):
            parse_automaton(text)

    def test_bad_header_missing(self):
        with pytest.raises(BadHeader):
            parse_automaton("alphabet a\nstates 1\ninitial 0\ntrans 0 a 0\n")

    def test_bad_header_duplicate(self):
        with pytest.raises(BadHeader) as exc:
            parse_automaton("alphabet a\nalphabet b\n")
        assert exc.value.line == 2

    def test_bad_header_unknown_keyword(self):
        with pytest.raises(BadHeader) as exc:
            parse_automaton(EX1_TEXT + "frobnicate 1\n")
        assert exc.value.line == 10

    def test_bad_initial_range(self):
        text = EX1_TEXT.replace("initial 0", "initial 9")
        with pytest.raises(BadStateIndex):
            parse_automaton(text)

    def test_comments_and_blank_lines(self):
        text = "# header comment\n\n" + EX1_TEXT.replace(
            "accept {0}", "accept {0}  # the a-tail language"
        )
        a, acc = parse_automaton(text)
        assert acc.entries == frozenset({frozenset({0})})

    def test_empty_group_is_empty_entry(self):
        text = EX1_TEXT.replace("accept {0}", "accept {}")
        _, acc = parse_automaton(text)
        assert acc.entries == frozenset({frozenset()})

    def test_multiple_groups_per_line(self):
        text = EX1_TEXT.replace("accept {0}", "accept {0} {0,1}")
        _, acc = parse_automaton(text)
        assert acc.entries == frozenset({frozenset({0}), frozenset({0, 1})})

    def test_buchi_accept(self):
        text = EX1_TEXT.replace("acc-type muller", "acc-type buchi").replace(
            "accept {0}", "accept 0 1"
        )
        _, acc = parse_automaton(text)
        assert isinstance(acc, BuchiSet)
        assert acc.accepting == frozenset({0, 1})

    def test_buchi_empty_accept(self):
        text = EX1_TEXT.replace("acc-type muller", "acc-type buchi").replace(
            "accept {0}", "accept"
        )
        _, acc = parse_automaton(text)
        assert acc.accepting == frozenset()


@pytest.mark.parametrize(
    "old, new, line, message",
    [
        ("states 2", "states ٢", 2, "state count must be an integer, got '٢'"),
        ("initial 0", "initial +0", 3, "initial state must be an integer, got '+0'"),
        ("trans 0 b 1", "trans 0 b １", 6, "target state must be an integer, got '１'"),
        ("trans 1 b 1", "trans 1 b 0_1", 8, "target state must be an integer, got '0_1'"),
        ("accept {0}", "accept {٠}", 9, "accept group member must be an integer, got '٠'"),
        # a negative number is an integer, and out of range
        ("initial 0", "initial -1", 3, "initial state -1 out of range"),
        ("trans 0 b 1", "trans 0 b -1", 6, "target state -1 out of range"),
        # past a C int: a doubt for the bulk reader, out of range for the line parser
        ("trans 0 b 1", "trans 0 b 2147483648", 6, "target state 2147483648 out of range"),
        ("trans 0 b 1", "trans 0 b 4294967296", 6, "target state 4294967296 out of range"),
    ],
)
def test_integers_are_ascii_digits_with_an_optional_minus(old, new, line, message):
    """Python's `int` would read '٢', '+0', '１' and '0_1' as numbers; the
    file format takes only ASCII digits, with an optional leading '-'."""
    text = EX1_TEXT.replace(old, new)
    assert text != EX1_TEXT
    for outcome in _outcomes(text):
        assert outcome[1:] == (line, f"line {line}: {message}")


class TestSerialize:
    def test_serialize_parse_token_identity_ex2(self):
        a, acc = parse_automaton(EX2_TEXT)
        assert tokens_of(serialize_automaton(a, acc)) == tokens_of(EX2_TEXT)

    def test_table_entries_sorted_lexicographically(self, ex1):
        table = MullerTable.of({1}, {0, 1}, {0})
        text = serialize_automaton(ex1, table)
        accept_lines = [l for l in text.splitlines() if l.startswith("accept")]
        assert accept_lines == ["accept {0}", "accept {0,1}", "accept {1}"]

    def test_origin_comments_round_trip(self, ex1):
        origins = {0: 0, 1: frozenset({0, 1})}
        text = serialize_automaton(ex1, MullerTable.of({0}), origins)
        assert "# state 1: merged scc 0" in text
        a, acc = parse_automaton(text)
        assert a == ex1

    def test_origin_keys_outside_the_automaton_rejected(self, ex1):
        one = DetAutomaton(alphabet=("a",), n_states=1, initial=0, delta=(0,))
        with pytest.raises(BadStateIndex):
            serialize_automaton(one, BuchiSet.of(0), {5: 7, -1: 3})
        with pytest.raises(BadStateIndex):
            serialize_chunks(ex1, BuchiSet.of(0), {0: 0, 2: 1})  # before any piece
        # A LayeredOrigins is checked by its length: one key too many.
        layered = LayeredOrigins(range(3), 3, [], [])
        with pytest.raises(BadStateIndex):
            serialize_chunks(ex1, BuchiSet.of(0), layered)
        assert "# state 1: layered (1, 0)" in serialize_automaton(
            ex1, BuchiSet.of(0), LayeredOrigins(range(2), 2, [], [])
        )

    def test_layered_origin_comment(self, ex1):
        text = serialize_automaton(ex1, BuchiSet.of(0), {0: (0, 0), 1: (1, 2)})
        assert "# state 1: layered (1, 2)" in text

    def test_round_trip_random(self):
        rng = random.Random(9)
        for _ in range(60):
            a = random_automaton(rng, rng.randint(1, 6), rng.randint(1, 3))
            if rng.random() < 0.5:
                entries = [
                    frozenset(
                        s for s in range(a.n_states) if rng.randrange(1 << a.n_states) >> s & 1
                    )
                    for _ in range(rng.randint(0, 3))
                ]
                acc = MullerTable(frozenset(entries))
            else:
                acc = BuchiSet(frozenset(s for s in range(a.n_states) if rng.random() < 0.4))
            text = serialize_automaton(a, acc)
            a2, acc2 = parse_automaton(text)
            assert a2 == a and acc2 == acc
            assert serialize_automaton(a2, acc2) == text


@given(st.integers(1, 5), st.integers(1, 3), st.integers(0, 10**9))
@settings(max_examples=80, deadline=None)
def test_round_trip_property(n, r, seed):
    rng = random.Random(seed)
    a = random_automaton(rng, n, r)
    entries = [
        frozenset(s for s in range(n) if rng.randrange(2))
        for _ in range(rng.randint(0, 3))
    ]
    acc = MullerTable(frozenset(entries))
    text = serialize_automaton(a, acc)
    a2, acc2 = parse_automaton(text)
    assert (a2, acc2) == (a, acc)


class TestLassoText:
    def test_round_trip_single_char(self):
        w = parse_lasso_text("ab:ba", ("a", "b"))
        assert w == LassoWord("ab", "ba")
        assert format_lasso(w, ("a", "b")) == "ab:ba"

    def test_empty_prefix(self):
        assert parse_lasso_text(":a", ("a", "b")) == LassoWord("", "a")

    def test_empty_period_rejected(self):
        with pytest.raises(ValueError):
            parse_lasso_text("a:", ("a", "b"))

    def test_multi_char_tokens(self):
        alphabet = ("foo", "bar")
        w = parse_lasso_text("foo,bar:bar", alphabet)
        assert w == LassoWord(("foo", "bar"), ("bar",))
        assert format_lasso(w, alphabet) == "foo,bar:bar"

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            parse_lasso_text("c:a", ("a", "b"))

    def test_format_word_modes(self):
        assert format_word(("a", "b"), ("a", "b")) == "ab"
        assert format_word(("foo",), ("foo", "bar")) == "foo"


# ---------------------------------------------------------------------------
# The streaming reader against the line parser on whole-text lines


def _parse_general(text: str | bytes):
    """The reference reading: the whole text decoded at once, its
    `str.splitlines` lines each taken by the line parser."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as e:
            # The bytes before e.start decode; the bad byte opens a line if
            # they end with a line break.
            line = len((text[: e.start].decode("utf-8") + "x").splitlines())
            raise FormatError(
                f"invalid UTF-8 (byte 0x{text[e.start]:02x}: {e.reason})", line
            ) from None
    lines = text.splitlines()
    parser = fileformat._LineParser()
    for lineno, raw in enumerate(lines, start=1):
        parser.line(lineno, raw)
    return parser.result(len(lines) + 1)


def _outcome(parse, text):
    """The parsed pair, or the error's class, line and message."""
    try:
        return parse(text)
    except FormatError as e:
        return type(e), e.line, str(e)


def _random_acceptance(rng: random.Random, n: int, kind: str):
    if kind == "buchi":
        return BuchiSet(frozenset(rng.sample(range(n), min(n, rng.randint(0, 3)))))
    return MullerTable(
        frozenset(
            frozenset(rng.sample(range(n), min(n, rng.randint(0, 3))))
            for _ in range(rng.randint(0, 3))
        )
    )


def _random_origins(rng: random.Random, n: int, kind: str):
    """Origins of the n states to write as comments: none, a dict of a few
    of them with values of every kind, or a `LayeredOrigins` of all."""
    if kind == "dict":
        values = (
            lambda: rng.randrange(n),
            lambda: frozenset(rng.sample(range(n), min(n, rng.randint(0, 2)))),
            lambda: (rng.randrange(n), rng.randint(0, 3)),
        )
        return {s: rng.choice(values)() for s in rng.sample(range(n), rng.randint(1, n))}
    if kind == "layered":
        base = rng.randint(1, n)
        k = max(rng.randint(1, 4), math.isqrt(n - base) + 1)
        members = [rng.randrange(base) for _ in range(k)]
        kept = sorted(rng.sample(range(base + k * k), n))
        return LayeredOrigins(kept, base, [members], [base])
    return None


@st.composite
def canonical_files(draw):
    """Canonical text of a random automaton, with or without origin
    comments: a few states, or more than one chunk of the bulk reader."""
    n = draw(st.integers(1, 12) | st.integers(_CHUNK_STATES + 1, _CHUNK_STATES + 40))
    r = draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    a = random_automaton(rng, n, r)
    acc = _random_acceptance(rng, n, draw(st.sampled_from(["muller", "buchi"])))
    origins = _random_origins(rng, n, draw(st.sampled_from(["none", "dict", "layered"])))
    return a, acc, serialize_automaton(a, acc, origins)


# Characters at which `str.splitlines` ends a line, besides "\n".
_BREAKS = ("\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028")

_EDITS = (
    "flip", "swap", "duplicate", "delete", "plus", "zero", "unicode-digit",
    "tab", "crlf", "comment", "trans-after-block", "block-twice", "out-of-range",
    "trans-after-comments", "accept-after-comments", "break-in-comment",
    "no-final-newline", "indented-comment", "crlf-file", "cr-crlf", "break-in-trans",
    "cr-file", "u2028-file",
)


def _edit(text: str, a: DetAutomaton, kind: str, k: int, bit: int) -> str:
    """Apply one edit to the k-th `trans` line, counted from the end of the
    block when k is negative, or to the k-th comment line (the last line
    when there is none); `bit` picks among variants of the edit."""
    lines = text.split("\n")
    first = 4  # the header takes four lines
    block = a.n_states * len(a.alphabet)
    i = first + k % block
    head, _, target = lines[i].rpartition(" ")
    comments = [j for j, line in enumerate(lines) if line.startswith("#")]
    c = comments[k % len(comments)] if comments else len(lines) - 2
    if kind == "flip":
        pos = (k + 5 * bit) % len(lines[i])
        flipped = chr(ord(lines[i][pos]) ^ (1 << bit))
        lines[i] = lines[i][:pos] + flipped + lines[i][pos + 1 :]
    elif kind == "swap":
        j = first + (k + 1 + bit) % block
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "delete":
        del lines[i]
    elif kind == "plus":
        lines[i] = f"{head} +{target}"
    elif kind == "zero":
        lines[i] = f"{head} 0{target}"
    elif kind == "unicode-digit":
        lines[i] = f"{head} " + "".join(chr(0x660 + int(c)) for c in target)
    elif kind == "tab":
        lines[i] = lines[i].replace(" ", "\t", 1 + bit % 3)
    elif kind == "crlf":
        lines[i] += "\r"
    elif kind == "comment":
        lines[i] += " # note"
    elif kind == "trans-after-block":
        lines.insert(first + block + bit % 2, lines[i] if bit % 3 else "trans 0 zz 0")
    elif kind == "block-twice":
        lines[first + block : first + block] = lines[first : first + block]
    elif kind == "trans-after-comments":
        lines.insert(len(lines) - 1 if bit % 2 else c + 1, lines[i] if bit % 3 else "trans 0 zz 0")
    elif kind == "accept-after-comments":
        accept = next((line for line in lines if line.startswith("accept")), "accept {0}")
        lines.insert(len(lines) - 1 if bit % 2 else c + 1, accept if bit % 3 else "accept")
    elif kind == "break-in-comment":
        pos = k % (len(lines[c]) + 1)
        brk = _BREAKS[bit % len(_BREAKS)] + ("#" if k % 2 else "")
        lines[c] = lines[c][:pos] + brk + lines[c][pos:]
    elif kind == "no-final-newline":
        lines.pop()
    elif kind == "indented-comment":
        lines[c] = " \t"[bit % 2] + lines[c]
    elif kind == "crlf-file":
        return "\r\n".join(lines)
    elif kind == "cr-file":
        return "\r".join(lines)
    elif kind == "u2028-file":
        return "\u2028".join(lines)
    elif kind == "cr-crlf":
        lines[i] += "\r\r"
    elif kind == "break-in-trans":
        # Inside the line or at its end: "a\x85\n" is two lines.
        pos = len(lines[i]) if bit % 2 else k % len(lines[i])
        lines[i] = lines[i][:pos] + _BREAKS[bit % len(_BREAKS)] + lines[i][pos:]
    else:
        lines[i] = f"{head} {a.n_states + bit % 2 if bit % 3 else -1}"
    return "\n".join(lines)


def _outcomes(text: str) -> list:
    """The outcome of each way into the streaming reader: the text, its
    UTF-8 bytes and a file of them."""
    data = text.encode("utf-8", "surrogatepass")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "edited.aut"
        path.write_bytes(data)
        sources = ((parse_automaton, text), (parse_automaton, data), (read_automaton, path))
        return [_outcome(parse, source) for parse, source in sources]


# Bytes per read: a few, so that blocks end inside the header, inside a
# line and inside a multibyte character, some more, or the default.
_READ_SIZES = st.integers(1, 7) | st.integers(8, 4096) | st.just(fileformat._READ_BYTES)


@given(
    canonical_files(),
    st.sampled_from(_EDITS),
    st.integers(0, 10**6) | st.integers(-3, -1),
    st.integers(0, 6),
    _READ_SIZES,
)
@settings(max_examples=120, deadline=None)
def test_fast_and_general_parsers_agree(case, kind, k, bit, read_bytes):
    a, acc, text = case
    edited = _edit(text, a, kind, k, bit)
    expected = _outcome(_parse_general, edited)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileformat, "_READ_BYTES", read_bytes)
        assert _outcomes(edited) == [expected] * 3


@given(canonical_files(), _READ_SIZES)
@settings(max_examples=30, deadline=None)
def test_canonical_files_take_the_bulk_reader(case, read_bytes):
    """Of a canonical file's lines, with any line break, only the header
    and the `accept` lines reach the line parser: not the `trans` block,
    nor the origin comments.  Blocks of a few bytes end some between the
    CR and the LF of a CRLF."""
    a, acc, canonical = case
    accept_lines = len(acc.entries) if isinstance(acc, MullerTable) else 1
    expected = (list(fileformat._HEADER_KEYS) + ["accept"] * accept_lines) * 3
    keys = []
    real_line = fileformat._LineParser.line

    def spy(self, lineno, raw):
        keys.append(real_line(self, lineno, raw))
        return keys[-1]

    for newline in ("\n", "\r\n", "\r", "\x0c", "\u2028"):
        keys.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileformat._LineParser, "line", spy)
            mp.setattr(fileformat, "_READ_BYTES", read_bytes)
            assert _outcomes(canonical.replace("\n", newline)) == [(a, acc)] * 3
        assert keys == expected, repr(newline)


@pytest.mark.parametrize("brk", _BREAKS)
@pytest.mark.parametrize("read_bytes", [3, fileformat._READ_BYTES])
def test_line_breaks_in_the_comment_tail(brk, read_bytes):
    """Each character other than newline at which `str.splitlines` ends a
    line, in the first, a middle or the last origin comment, followed by
    a keyword or by '#': the reader agrees with the line parser."""
    a = random_automaton(random.Random(8), 40, 2)
    text = serialize_automaton(a, BuchiSet.of(3), LayeredOrigins(range(40), 30, [[1, 2, 3]], [30]))
    lines = text.split("\n")
    comments = [i for i, line in enumerate(lines) if line.startswith("#")]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileformat, "_READ_BYTES", read_bytes)
        for i in (comments[0], comments[len(comments) // 2], comments[-1]):
            for after in ("#", "accept 5", ""):
                edited = "\n".join(lines[:i] + [lines[i] + brk + after] + lines[i + 1 :])
                assert _outcomes(edited) == [_outcome(_parse_general, edited)] * 3


@pytest.mark.parametrize("read_bytes", [1, 3, fileformat._READ_BYTES])
@pytest.mark.parametrize("state", [0, 20, 38])
def test_non_ascii_comment_takes_the_bulk_reader(state, read_bytes):
    """An origin comment with a non-ASCII letter, first, in the middle or
    last: the reader keeps to the bulk path, from the text, its bytes and
    a file, and only the header and `accept` lines reach the line parser."""
    a = random_automaton(random.Random(8), 40, 2)
    acc = BuchiSet.of(3)
    text = serialize_automaton(a, acc, LayeredOrigins(range(40), 30, [[1, 2, 3]], [30]))
    edited = text.replace(f"# state {state}:", f"# \u00e9tat {state}:")
    assert edited.count("\u00e9") == 1
    keys = []
    real_line = fileformat._LineParser.line

    def spy(self, lineno, raw):
        keys.append(real_line(self, lineno, raw))
        return keys[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileformat._LineParser, "line", spy)
        mp.setattr(fileformat, "_READ_BYTES", read_bytes)
        assert _outcomes(edited) == [(a, acc)] * 3
    assert keys == (list(fileformat._HEADER_KEYS) + ["accept"]) * 3


def _counting_decoded(read: list):
    """A `_decoded` that appends the size of each block it is given to `read`."""
    real = fileformat._decoded

    def decoded(blocks):
        def counted():
            for block in blocks:
                read.append(len(block))
                yield block

        return real(counted())

    return decoded


@pytest.mark.parametrize("after", ["# more", "more", ""])
@pytest.mark.parametrize("read_bytes", [3, fileformat._READ_BYTES])
def test_line_break_in_a_header_comment_is_read_once(after, read_bytes):
    """A U+2028 in a comment on a header line ends that line for
    `str.splitlines`: each way into the reader agrees with the line parser
    on the whole text, and the bytes and the file are each read once."""
    a = random_automaton(random.Random(8), 40, 2)
    lines = serialize_automaton(a, BuchiSet.of(3)).split("\n")
    for i in range(len(fileformat._HEADER_KEYS)):
        edited = "\n".join(lines[:i] + [lines[i] + " # note\u2028" + after] + lines[i + 1 :])
        read = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileformat, "_decoded", _counting_decoded(read))
            mp.setattr(fileformat, "_READ_BYTES", read_bytes)
            assert _outcomes(edited) == [_outcome(_parse_general, edited)] * 3
        assert sum(read) == 2 * len(edited.encode())


def _read_with_one_doubt(tmp_path, state: int) -> list:
    """Read a canonical file of three pieces, the last of 5 states, with
    one space more in the `b` line of `state`, from its text and from a
    file.  For each: the first state of each piece rendered, and the
    keyword of each line that reaches the line parser."""
    n = 2 * _CHUNK_STATES + 5
    a = random_automaton(random.Random(4), n, 2)
    text = serialize_automaton(a, BuchiSet.of(0))
    line = f"\ntrans {state} b {a.delta[2 * state + 1]}\n"
    edited = text.replace(line, line.replace(" b ", " b  "))
    assert len(edited) == len(text) + 1
    path = tmp_path / "edited.aut"
    path.write_text(edited)
    real_render = fileformat._TransRenderer.__call__
    real_line = fileformat._LineParser.line
    seen = []
    for source, parse in ((edited, parse_automaton), (path, read_automaton)):
        renders, keys = [], []

        def render(self, first, stop, targets):
            renders.append(first)
            return real_render(self, first, stop, targets)

        def spy(self, lineno, raw):
            keys.append(real_line(self, lineno, raw))
            return keys[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileformat._TransRenderer, "__call__", render)
            mp.setattr(fileformat._LineParser, "line", spy)
            assert parse(source) == (a, BuchiSet.of(0))
        seen.append((renders, keys))
    return seen


def test_doubt_in_the_last_piece_reads_only_its_lines(tmp_path):
    """Every piece is rendered once, and of the `trans` block only the
    last piece's 10 lines reach the line parser."""
    expected = list(fileformat._HEADER_KEYS) + ["trans"] * 10 + ["accept"]
    for renders, keys in _read_with_one_doubt(tmp_path, 2 * _CHUNK_STATES + 4):
        assert renders == [0, _CHUNK_STATES, 2 * _CHUNK_STATES]
        assert keys == expected


def test_doubt_in_the_first_piece_leaves_later_pieces_in_bulk(tmp_path):
    """The first piece is read line by line; every later piece is again
    rendered and taken in bulk."""
    expected = list(fileformat._HEADER_KEYS) + ["trans"] * (2 * _CHUNK_STATES) + ["accept"]
    for renders, keys in _read_with_one_doubt(tmp_path, 0):
        assert renders == [0, _CHUNK_STATES, 2 * _CHUNK_STATES]
        assert keys == expected


def test_non_utf8_bytes_name_their_line(tmp_path):
    """Bytes that are not UTF-8 are a `FormatError` that names the line of
    the first bad one, the same from bytes and from a file, whatever the
    size of the blocks read, and also after an error of another kind."""
    big = random_automaton(random.Random(6), 3 * _CHUNK_STATES, 2)
    small = random_automaton(random.Random(6), 40, 2)
    # Blocks of 1 to 7 bytes end inside every line, and right after the
    # "\r" of a "\r\n" or of a lone "\r" too.
    for a, sizes in ((big, [fileformat._READ_BYTES]), (small, range(1, 8))):
        data = serialize_automaton(a, BuchiSet.of(1), {s: s for s in range(a.n_states)}).encode()
        assert a is small or len(data) > 2 * fileformat._READ_BYTES  # past the first block
        lines = data.split(b"\n")
        n = len(lines)
        # ({index of a line: its new bytes}, line number, reason); a lone
        # "\r" ends a line, and a "\r\n" is one line break.
        cases = [
            ({n - 5: b"# state \xff"}, n - 4, "byte 0xff: invalid start byte"),
            ({1: b"states 3\r\xe2\x82"}, 3, "byte 0xe2: invalid continuation byte"),
            ({n - 1: b"# \xc3"}, n, "byte 0xc3: unexpected end of data"),
            ({2: b"initial 0\r\n# \xff"}, 4, "byte 0xff: invalid start byte"),
            # A header error on line 3: the bad byte after it still goes first,
            # and a "\r\n" between them is still one line break.
            ({2: b"initial x", n - 5: b"# state \xff"}, n - 4, "byte 0xff: invalid start byte"),
            ({2: b"initial x", 9: lines[9] + b"\r", n - 5: b"# state \xff"}, n - 4,
             "byte 0xff: invalid start byte"),
        ]
        path = tmp_path / "bad.aut"
        for read_bytes in sizes:
            for edits, lineno, reason in cases:
                edited = b"\n".join(edits.get(i, line) for i, line in enumerate(lines))
                path.write_bytes(edited)
                for parse, source in ((parse_automaton, edited), (read_automaton, path)):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(fileformat, "_READ_BYTES", read_bytes)
                        with pytest.raises(FormatError) as exc:
                            parse(source)
                    assert type(exc.value) is FormatError
                    assert str(exc.value) == f"line {lineno}: invalid UTF-8 ({reason})"


def test_early_copy_of_a_later_line_keeps_its_piece_from_the_bulk_reader():
    """A copy of a line of the second piece ahead of the first: it waits
    while the first piece is read, so the second piece is read line by
    line and its own line is a duplicate, as for the line parser."""
    a = random_automaton(random.Random(5), _CHUNK_STATES + 5, 2)
    lines = serialize_automaton(a, BuchiSet.of(0)).split("\n")
    i = 4 + 2 * _CHUNK_STATES + 3  # the header takes four lines
    edited = "\n".join(lines[:4] + [lines[i]] + lines[4:])
    expected = _outcome(_parse_general, edited)
    assert expected[:2] == (DuplicateTransition, i + 2)
    assert _outcomes(edited) == [expected] * 3


def test_crlf_comment_tail_is_split_in_batches():
    """Indented comment lines (here in a CRLF file) are not passed as a
    run, but neither is each one a batch of its own: their lines are split
    a block of text at a time."""
    a = random_automaton(random.Random(3), 300, 2)
    origins = {s: s for s in range(a.n_states)}
    text = serialize_automaton(a, BuchiSet.of(1), origins).replace("\n#", "\n #")
    text = text.replace("\n", "\r\n")
    batches = []
    real_lines = fileformat._Cursor.lines

    def lines(self):
        batches.append(real_lines(self))
        return batches[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileformat._Cursor, "lines", lines)
        mp.setattr(fileformat, "_READ_BYTES", 1024)
        assert parse_automaton(text) == (a, BuchiSet.of(1))
    # The comment lines are handed out, at most about one batch per block,
    # where a batch a line would be one per comment line.
    assert sum(map(len, batches)) > a.n_states
    assert len(batches) < len(text) // 1024 + 10 < a.n_states


def test_fifo_is_read_once_in_blocks(tmp_path):
    """A pipe cannot be read twice: a file that is not canonical (here
    with two spaces after each `trans`, and CRLF line ends) is read from
    one once, a block at a time."""
    path = tmp_path / "pipe"
    os.mkfifo(path)
    a = random_automaton(random.Random(3), 300, 2)
    origins = {s: s for s in range(a.n_states)}
    text = serialize_automaton(a, BuchiSet.of(1), origins).replace("trans ", "trans  ")
    data = text.replace("\n", "\r\n").encode()
    writer = threading.Thread(target=path.write_bytes, args=(data,), daemon=True)
    read = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileformat, "_decoded", _counting_decoded(read))
        mp.setattr(fileformat, "_READ_BYTES", 1024)
        writer.start()
        assert read_automaton(path) == (a, BuchiSet.of(1))
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert sum(read) == len(data) and max(read) <= 1024 and len(read) > len(data) // 1024


_LINE_PIECES = st.sampled_from(
    [
        "alphabet a b", "alphabet a", "alphabet a{ b", "alphabet x:y", "states 2",
        "states 0", "states 99999999999", "initial 0", "initial 7", "acc-type muller",
        "acc-type buchi", "trans 0 a 1", "trans 1 b 0", "trans 0 a 0", "trans 1 a 1",
        "trans 0 b 1", "trans 1 b 1", "trans 0 c 0", "trans 2 a 0", "accept {0}",
        "accept {0,1} {}", "accept {1", "accept 0 1", "accept {,}", "# note", "",
        "trans 0 a ١", "states +2",
    ]
)


@given(st.lists(_LINE_PIECES | st.text(max_size=12), max_size=14), st.sampled_from(["\n", "\r\n", "\r"]))
@settings(max_examples=300, deadline=None)
def test_arbitrary_text_raises_only_format_errors(pieces, newline):
    text = newline.join(pieces)
    assert _outcome(parse_automaton, text) == _outcome(_parse_general, text)
    # A lone surrogate is no UTF-8: its bytes fail to decode.
    data = text.encode("utf-8", "surrogatepass")
    assert _outcome(parse_automaton, data) == _outcome(_parse_general, data)


def test_reserved_symbol_token_is_a_header_error():
    with pytest.raises(BadHeader) as exc:
        parse_automaton(EX1_TEXT.replace("alphabet a b", "alphabet a b{"))
    assert exc.value.line == 1


@pytest.mark.parametrize("count", [MAX_STATES + 1, 10**20])
def test_state_count_past_max_states_is_a_header_error(tmp_path, count):
    # Without the check at the header, this file would fail only at its end,
    # with no transition for state 1.
    text = f"alphabet a\nstates {count}\ninitial 0\nacc-type buchi\ntrans 0 a 0\naccept 0\n"
    path = tmp_path / "big.aut"
    path.write_text(text)
    for parse, source in ((parse_automaton, text), (parse_automaton, text.encode()), (read_automaton, path)):
        with pytest.raises(BadHeader) as exc:
            parse(source)
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: state count must be at most {MAX_STATES}"
    # At the limit itself, the header is accepted.
    with pytest.raises(MissingTransition):
        parse_automaton(text.replace(str(count), str(MAX_STATES)))


def _lines(text: str) -> list[str]:
    """Lines with their ends, so that a failed comparison of long texts
    reports the first differing line instead of diffing the whole text."""
    return text.splitlines(keepends=True)


def _reference_lines(a: DetAutomaton, acc, origins=None) -> list[str]:
    """Canonical text written out line by line."""
    r = len(a.alphabet)
    lines = [
        f"alphabet {' '.join(a.alphabet)}",
        f"states {a.n_states}",
        f"initial {a.initial}",
        f"acc-type {'muller' if isinstance(acc, MullerTable) else 'buchi'}",
    ]
    lines += [
        f"trans {s} {tok} {a.delta[s * r + x]}"
        for s in range(a.n_states)
        for x, tok in enumerate(a.alphabet)
    ]
    if isinstance(acc, MullerTable):
        lines += ["accept {" + ",".join(map(str, e)) + "}" for e in sorted(tuple(sorted(e)) for e in acc.entries)]
    else:
        lines.append(("accept " + " ".join(map(str, sorted(acc.accepting)))).rstrip())
    for idx in sorted(origins or {}):
        value = origins[idx]
        if isinstance(value, tuple):
            text = f"layered ({value[0]}, {value[1]})"
        elif isinstance(value, frozenset):
            text = f"merged scc {min(value)}" if value else "merged scc {}"
        else:
            text = f"from state {value}"
        lines.append(f"# state {idx}: {text}")
    return [line + "\n" for line in lines]


def test_chunked_text_matches_line_by_line_text():
    rng = random.Random(12)
    n = 2 * _CHUNK_STATES + 3
    a = DetAutomaton(("%d", "x%%"), n, 5, [rng.randrange(n) for _ in range(2 * n)])
    for acc in (MullerTable(frozenset()), MullerTable.of({1, 0}, {2}), BuchiSet(frozenset()), BuchiSet.of(3, 1)):
        text = serialize_automaton(a, acc)
        assert _lines(text) == _reference_lines(a, acc)
        assert "".join(serialize_chunks(a, acc)) == text
        assert parse_automaton(text) == _parse_general(text) == (a, acc)


def _translations(rng: random.Random, n: int):
    """A translation of a random automaton's terminal-SCC table, with every
    kernel and with and without pruning."""
    a, t = build_meagre_complement(random_automaton(rng, n, rng.randint(1, 3)))
    for prune in (True, False):
        for use_numpy in (False, True):
            with pinned_kernel(use_numpy):
                tr = muller_to_buchi_maximal(a, t, prune=prune)
            yield tr


@given(st.integers(1, 40), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_round_trip_with_layered_origins(n, seed):
    for tr in _translations(random.Random(seed), n):
        assert isinstance(tr.origin, LayeredOrigins)
        text = serialize_automaton(tr.automaton, tr.accepting, tr.origin)
        assert _lines(text) == _reference_lines(tr.automaton, tr.accepting, dict(tr.origin))
        assert parse_automaton(text) == (tr.automaton, tr.accepting)
        assert _lines(serialize_automaton(*parse_automaton(text), tr.origin)) == _lines(text)


@given(st.integers(1, 10), st.integers(0, 10**9))
@settings(max_examples=40, deadline=None)
def test_round_trip_with_dict_origins(n, seed):
    rng = random.Random(seed)
    a = random_automaton(rng, n, rng.randint(1, 3))
    t = _random_acceptance(rng, n, "muller")
    w = build_open_witness(a, t)
    text = serialize_automaton(w.automaton, w.table, w.origin)
    assert _lines(text) == _reference_lines(w.automaton, w.table, w.origin)
    assert parse_automaton(text) == (w.automaton, w.table)
    assert _lines(serialize_automaton(*parse_automaton(text), w.origin)) == _lines(text)


def test_empty_muller_table_round_trip():
    a = random_automaton(random.Random(2), 3 * _CHUNK_STATES, 2)
    empty = MullerTable(frozenset())
    text = serialize_automaton(a, empty, {0: 0})
    assert text.endswith(f"trans {a.n_states - 1} b {a.delta[-1]}\n# state 0: from state 0\n")
    assert parse_automaton(text) == (a, empty)
    assert _lines(serialize_automaton(*parse_automaton(text), {0: 0})) == _lines(text)
