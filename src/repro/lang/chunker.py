"""Declaration-level source chunker for streaming parses.

Splits one CLC source string into top-level *chunks* -- runs of lines
that together hold one (or more, for single-line files) complete
top-level items -- without lexing it. The scanner builds no tokens: it
jumps from one character that can change what a newline means to the
next (a bracket, a string that is more than plain text, a heredoc, a
block comment) and asks the lexer's own ``scan_string`` /
``scan_heredoc`` / ``block_comment_end`` where those end, so the two
cannot disagree about what is inside a string. That makes it an order
of magnitude cheaper than the full lexer, which matters because the
chunker runs on *every* parse, warm or cold.

Each chunk carries a content fingerprint (sha256 of its exact text).
:meth:`repro.lang.Configuration.parse_streaming` uses the fingerprints
to skip re-lexing unchanged chunks against a previous parse, and the
compiled-artifact cache uses them to decide whether a cached graph is
still valid per declaration. Leading blank lines and comment-only lines
attach to the chunk that follows them, so a doc comment travels with
its block and editing it invalidates only that block.
"""

from __future__ import annotations

import dataclasses
import hashlib
import re
from typing import Iterator, List

from .lexer import (
    LINE_COMMENT,
    SIMPLE_STRING,
    block_comment_end,
    scan_heredoc,
    scan_string,
)

# between declarations: blank space and line comments (block comments
# are stepped over one at a time)
_TRIVIA = re.compile(r"(?:[ \t\r\n]+|%s)*" % LINE_COMMENT)


def _run_to_next_turn(plain: str) -> "re.Pattern[str]":
    """Inside a declaration: everything up to the next character that can
    change what a newline means -- a bracket, a string the lexer would
    not take in one match, ``<<``, ``/*`` -- or that ``plain`` leaves out."""
    return re.compile(
        r"(?:%s+|%s|%s|<(?!<)|/(?!\*))*" % (plain, SIMPLE_STRING, LINE_COMMENT)
    )


# outside brackets the run stops at the newline too: it ends the chunk
_RUN_TOP = _run_to_next_turn(r'[^\n"#/<{}\[\]()]')
_RUN_NESTED = _run_to_next_turn(r'[^"#/<{}\[\]()]')


def _past_block_comment(source: str, i: int) -> int:
    """Just past the ``/* ... */`` at ``i`` -- the end of the source when
    it never closes (the lexer says so; the chunker must not stop)."""
    end = block_comment_end(source, i)
    return end if end >= 0 else len(source)


@dataclasses.dataclass(frozen=True)
class SourceChunk:
    """One top-level run of source text, with provenance."""

    text: str
    start_line: int  # 1-based line of the chunk's first character
    fingerprint: str  # sha256 hex of ``text``


def fingerprint_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def iter_chunks(source: str) -> Iterator[SourceChunk]:
    """Yield the top-level chunks of ``source`` in order.

    Concatenating every chunk's ``text`` reproduces ``source`` exactly
    (the chunker never drops or rewrites bytes); a chunk boundary is a
    newline at top-level depth after the chunk has seen non-comment
    content. Malformed input (unterminated strings or blocks) never
    raises here -- the tail simply lands in the final chunk and the
    parser reports the real diagnostic.
    """
    n = len(source)
    i = 0
    chunk_start = 0
    chunk_line = 1

    while True:
        # blank and comment-only lines lead the chunk that follows them
        while True:
            i = _TRIVIA.match(source, i).end()
            if not source.startswith("/*", i):
                break
            i = _past_block_comment(source, i)
        if i >= n:
            break
        depth = 0
        while i < n:
            i = (_RUN_NESTED if depth else _RUN_TOP).match(source, i).end()
            ch = source[i : i + 1]
            if ch == "\n":
                i += 1
                text = source[chunk_start:i]
                yield SourceChunk(text, chunk_line, fingerprint_text(text))
                chunk_start = i
                chunk_line += text.count("\n")
                break
            if ch == '"':
                # unterminated: stops at the newline or the bad escape,
                # and the lexer will say so
                i = scan_string(source, i)[0]
            elif ch == "<":
                i = scan_heredoc(source, i)[0]
            elif ch == "/":
                i = _past_block_comment(source, i)
            elif ch:
                depth = depth + 1 if ch in "{[(" else max(0, depth - 1)
                i += 1

    if chunk_start < n:
        # emit the tail even when it is blank/comment-only: the
        # roundtrip guarantee (concat of chunks == source) is what lets
        # callers hash chunks in place of the file
        text = source[chunk_start:]
        yield SourceChunk(text, chunk_line, fingerprint_text(text))


def chunk_fingerprints(source: str) -> List[str]:
    """The ordered chunk fingerprints of ``source`` (cache-key helper)."""
    return [chunk.fingerprint for chunk in iter_chunks(source)]
