"""The lexer, chunker and parser against the corpus their predecessors wrote.

``lang_corpus.json`` was written by commit ``a3ccd4f``'s per-character
lexer and chunker (see ``generate_lang_golden.py``); that code is gone,
and this is what says the compiled scanner that replaced it reads every
program the same: same tokens, same five-field spans, same chunk
boundaries and fingerprints, same AST, same ``(message, span)`` for
every input it turns away.
"""

import functools
import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lang_corpus  # noqa: E402
from repro.lang.lexer import tokenize  # noqa: E402

with open(lang_corpus.CORPUS_PATH) as _handle:
    CORPUS = json.load(_handle)



@functools.lru_cache(maxsize=None)
def programs():
    """Built on first use, not at collection: 60 mutants are 120 parses."""
    return dict(lang_corpus.programs())


def test_the_corpus_names_the_programs_the_generators_still_write():
    assert sorted(CORPUS["programs"]) == sorted(programs())
    assert sorted(CORPUS["malformed"]) == sorted(n for n, _ in lang_corpus.MALFORMED)
    assert len([n for n in programs() if n.startswith("mutant_")]) >= 50
    assert len(CORPUS["malformed"]) >= 25


@pytest.mark.parametrize("name", sorted(CORPUS["programs"]))
def test_program_reads_as_it_did(name):
    want = CORPUS["programs"][name]
    sources = programs()[name]
    # a generator that drifted is not the lexer's failure: say which
    assert lang_corpus.source_digest(sources) == want["source_sha256"]
    if "token_list" in want:
        # in the clear, so the first differing token is what pytest shows
        got = json.loads(json.dumps(lang_corpus.token_dump(sources)))
        for i, (g, w) in enumerate(zip(got, want["token_list"])):
            assert g == w, f"token {i}"
        assert len(got) == len(want["token_list"])
    # program_record also asserts parse_streaming == parse, spans and all
    assert lang_corpus.program_record(sources, "token_list" in want) == want


#: the one place the corpus is not reproduced, and why: the parent's
#: chunker stepped over the character after a backslash without looking
#: at it, so a newline there ended no chunk and was never counted (every
#: later ``start_line`` one short). The lexer never read it that way,
#: and the chunker now asks the lexer.
CHUNKER_NOW_AGREES_WITH_LEXER = {"backslash_newline": [1, 2]}


@pytest.mark.parametrize(
    "name, text", lang_corpus.MALFORMED, ids=[n for n, _ in lang_corpus.MALFORMED]
)
def test_malformed_input_is_turned_away_as_it_was(name, text):
    want = dict(CORPUS["malformed"][name])
    assert want["source"] == text
    if name in CHUNKER_NOW_AGREES_WITH_LEXER:
        assert want["chunk_lines"] == [1]
        want["chunk_lines"] = CHUNKER_NOW_AGREES_WITH_LEXER[name]
    assert lang_corpus.malformed_record(text) == want
    # the streaming parse blames what the whole-file parse blames
    assert want["parse_streaming"] == want["parse"] != ["ok"]


#: what the parent could not answer with its own error type, or answered
#: from the wrong place: ``float()`` refusing a second exponent was a
#: ValueError, ``\\u`` stepped four characters blind (IndexError off the
#: end; over the closing quote otherwise, and ``int(.., 16)`` took
#: ``"12e "`` and ``"4E2\\n"`` for hex)
NOW_TURNED_AWAY_TYPED = [
    ("x = 1e5e3\n", "invalid number literal '1e5e3'", [1, 5, 1, 10]),
    ("x = [1, 2.5e3E-2]\n", "invalid number literal '2.5e3E-2'", [1, 9, 1, 17]),
    ("x = " + "1" * 5000, "invalid number literal '" + "1" * 5000 + "'", [1, 5, 1, 5005]),
    ('x = "\\u12', "invalid unicode escape \\u12", [1, 6, 1, 6]),
    ('x = "\\u12"\ny = 2\n', "invalid unicode escape \\u12", [1, 6, 1, 6]),
    ('x = "ab\\u12e z"\n', "invalid unicode escape \\u12e", [1, 8, 1, 8]),
    ('x = "\\uzzzz"\n', "invalid unicode escape \\u", [1, 6, 1, 6]),
    ('a = 1\nx = "${ "\\u00g0" }"\n', "invalid unicode escape \\u00", [2, 10, 2, 10]),
]


@pytest.mark.parametrize(
    "text, message, where",
    NOW_TURNED_AWAY_TYPED,
    ids=[
        "second_exponent",
        "second_exponent_in_list",
        "more_digits_than_int_reads",
        "unicode_escape_at_eof",
        "unicode_escape_before_quote",
        "unicode_escape_three_digits_and_space",
        "unicode_escape_no_digits",
        "unicode_escape_inside_interpolation",
    ],
)
def test_the_lexer_raises_only_its_own_error(text, message, where):
    want = [message, ["bad.clc"] + where]
    got = lang_corpus.malformed_record(text)
    assert got["parse"] == got["parse_streaming"] == want
    if "${" not in text:  # an interpolation's body is lexed by the parser
        assert got["tokenize"] == want


def test_number_forms_that_were_never_wrong_still_lex():
    values = [t.value for t in tokenize("1e5 1.5E-3 2e+2 1.5.3 1e5.e3 007")[:-1]]
    assert values == [1e5, 1.5e-3, 2e2, 1.5, ".", 3, 1e5, ".", "e3", 7]
    assert [type(v) for v in values[:3] + values[-1:]] == [float, float, float, int]


def test_the_chunker_reads_a_string_the_way_the_lexer_does():
    """``$$${`` is a literal ``$`` and a literal ``${``; the parent's
    chunker took the pair for an escape and the rest for an
    interpolation, so an unbalanced quote or brace after it ran the
    chunk on to the end of the file. One definition now, so the
    declarations after it are chunks again."""
    text = 'a "x" {\n  v = "$$${"\n}\nb "y" {\n  w = "}"\n}\n'
    assert [c.start_line for c in lang_corpus.iter_chunks(text)] == [1, 4]
    sources = {"main.clc": text}
    assert lang_corpus.program_record(sources)["tokens"] == 21
    # and an interpolation's strings nest the lexer's way: flat, so the
    # quote inside the inner template closes it
    text = 'a = "${ "$$${" }"\nb = 1\n'
    assert [c.start_line for c in lang_corpus.iter_chunks(text)] == [1, 2]
    lang_corpus.program_record({"main.clc": text})


@pytest.mark.parametrize(
    "make",
    [
        lambda n: 'x = "' + "a" * n + '"\n',
        lambda n: 'x = "' + "a" * n + '\\n"\n',
        lambda n: "/*" + "a\n" * (n // 2) + "*/ x = 1\n",
        lambda n: "x = <<EOT\n" + "line\n" * (n // 5) + "EOT\n",
        lambda n: 'x = "${ f("' + "a" * n + '") }"\n',
    ],
    ids=["string", "escaped_string", "block_comment", "heredoc", "interpolation"],
)
def test_one_long_lexeme_costs_its_length(make):
    """Nothing walks a long lexeme once per character it has already
    walked: ten times the bytes is ten times the time, where a rescan
    per character, line or escape would make it a hundred. The line is
    drawn at twenty because a scan that *is* linear measures 9-11x."""

    def best(source):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            tokenize(source)
            times.append(time.perf_counter() - start)
        return min(times)

    small, big = make(100_000), make(1_000_000)
    assert tokenize(big)[-1].type.name == "EOF"
    assert best(big) < 20 * best(small)
