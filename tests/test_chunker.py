"""Chunker and streaming-parse tests.

The chunker (``repro.lang.chunker``) must split any source into
byte-exact chunks -- concatenation reproduces the input -- across every
lexical construct that can hide a newline (strings, interpolations,
heredocs, comments, nested blocks). ``Configuration.parse_streaming``
(which ``Configuration.parse`` is, with nothing to reuse) must read
what a whole-file parse would -- ``tests/golden/lang_corpus.json``
holds what one did -- and must actually skip re-parsing unchanged
chunks when given ``reuse=``.
"""

import dataclasses

import pytest

from repro.lang import Configuration
from repro.lang.chunker import chunk_fingerprints, iter_chunks

SIMPLE = '''
variable "region" {
  default = "eastus"
}

resource "azure_resource_group" "app" {
  name     = "app-rg"
  location = var.region
}

output "rg" {
  value = azure_resource_group.app.id
}
'''

TRICKY = '''
# leading comment travels with the next block
resource "aws_vpc" "a" {
  name = "brace } in string"
  tag  = "interp ${join("-", ["x", "y"])} tail"
}

resource "aws_subnet" "b" {
  description = <<EOT
heredoc with } and { and "quotes"
and a blank line:

EOT
  cidr_block = cidrsubnet("10.0.0.0/16", 8, 1)  # trailing comment
}

locals {
  nested = { a = { b = [1, 2, { c = 3 }] } }
}
'''


class TestChunkRoundtrip:
    def test_concat_reproduces_source(self):
        for src in (SIMPLE, TRICKY, "", "\n\n", "# only a comment\n"):
            chunks = list(iter_chunks(src))
            assert "".join(c.text for c in chunks) == src

    def test_one_chunk_per_top_level_block(self):
        chunks = list(iter_chunks(SIMPLE))
        assert len(chunks) == 3
        assert 'variable "region"' in chunks[0].text
        assert 'resource "azure_resource_group"' in chunks[1].text
        assert 'output "rg"' in chunks[2].text

    def test_tricky_grammar_boundaries(self):
        chunks = list(iter_chunks(TRICKY))
        assert len(chunks) == 3
        # the heredoc's blank line must not split its chunk
        assert "EOT" in chunks[1].text and "cidr_block" in chunks[1].text

    def test_comment_attaches_to_following_block(self):
        chunks = list(iter_chunks(TRICKY))
        assert chunks[0].text.lstrip().startswith("# leading comment")

    def test_start_lines_are_file_absolute(self):
        chunks = list(iter_chunks(SIMPLE))
        lines = SIMPLE.splitlines()
        for chunk in chunks:
            first = chunk.text.lstrip("\n").splitlines()[0]
            blanks = len(chunk.text) - len(chunk.text.lstrip("\n"))
            assert lines[chunk.start_line - 1 + blanks] == first

    def test_unterminated_tail_lands_in_last_chunk(self):
        src = 'resource "aws_vpc" "a" {\n  name = "unterminated\n'
        chunks = list(iter_chunks(src))
        assert "".join(c.text for c in chunks) == src


class TestChunkFingerprints:
    def test_stable_and_content_addressed(self):
        fps1 = chunk_fingerprints(SIMPLE)
        fps2 = chunk_fingerprints(SIMPLE)
        assert fps1 == fps2
        assert len(fps1) == 3

    def test_editing_one_block_changes_one_fingerprint(self):
        before = chunk_fingerprints(SIMPLE)
        after = chunk_fingerprints(SIMPLE.replace('"app-rg"', '"app-rg2"'))
        assert len(before) == len(after)
        diffs = [i for i, (a, b) in enumerate(zip(before, after)) if a != b]
        assert diffs == [1]


class TestParseStreaming:
    def test_equivalent_to_parse(self):
        stream = Configuration.parse_streaming(TRICKY)
        assert set(stream.resources) == {
            ("managed", "aws_vpc", "a"),
            ("managed", "aws_subnet", "b"),
        }
        assert set(stream.locals) == {"nested"}
        assert not stream.diagnostics.has_errors()

    def test_diagnostics_spans_are_file_absolute(self):
        src = SIMPLE + '\nresource "oops" {\n}\n'
        stream = Configuration.parse_streaming(src)
        errs = [(d.message, d.span.start_line) for d in stream.diagnostics]
        # the malformed resource header, on the line it is on in the file
        assert errs == [("resource block wants two labels (type, name)", 15)]
        assert src.splitlines()[14] == 'resource "oops" {'

    def test_reuse_skips_unchanged_chunks(self):
        prev = Configuration.parse_streaming(SIMPLE)
        edited = SIMPLE.replace('"app-rg"', '"app-rg2"')
        cfg = Configuration.parse_streaming(edited, reuse=prev)
        # unchanged chunk ASTs are the same objects, not re-parses
        shared = set(prev._chunk_asts) & set(cfg._chunk_asts)
        assert len(shared) == 2
        for fp in shared:
            assert cfg._chunk_asts[fp] is prev._chunk_asts[fp]
        decl = cfg.resource("azure_resource_group", "app")
        assert decl is not None

    def test_reuse_ignores_other_files_chunks(self):
        prev = Configuration.parse_streaming({"a.clc": SIMPLE})
        cfg = Configuration.parse_streaming({"b.clc": SIMPLE}, reuse=prev)
        for fp, ast in cfg._chunk_asts.items():
            assert ast.filename == "b.clc"

    def test_multi_file_fingerprint_map(self):
        cfg = Configuration.parse_streaming(
            {"a.clc": SIMPLE, "b.clc": TRICKY}
        )
        assert set(cfg.block_fingerprints) == {"a.clc", "b.clc"}
        assert cfg.block_fingerprints["a.clc"] == chunk_fingerprints(SIMPLE)
        assert cfg.block_fingerprints["b.clc"] == chunk_fingerprints(TRICKY)


def _every_span(cfg):
    """Every position a parse hands to later stages: the span of each
    block, attribute and (sub-)expression, of each declaration, and each
    diagnostic with its message."""
    from repro.lang.ast_nodes import Expr

    def walk_expr(expr):
        """``expr`` and every sub-expression, depth first, in field
        order: an expression's fields hold expressions, lists of them
        and (key, value) pairs of them."""
        yield expr
        for field in dataclasses.fields(expr):
            value = getattr(expr, field.name)
            for item in value if isinstance(value, list) else (value,):
                for part in item if isinstance(item, tuple) else (item,):
                    if isinstance(part, Expr):
                        yield from walk_expr(part)

    out = []

    def span(tag, s):
        out.append((tag, s.filename, s.start_line, s.start_col, s.end_line, s.end_col))

    def body(b, path):
        for name, attr in b.attributes.items():
            span(f"{path}.{name}", attr.span)
            for i, expr in enumerate(walk_expr(attr.expr)):
                span(f"{path}.{name}#{i}:{type(expr).__name__}", expr.span)
        for i, block in enumerate(b.blocks):
            here = f"{path}/{i}:{block.type}{block.labels}"
            span(here, block.span)
            body(block.body, here)

    for cfile in cfg.files:
        body(cfile.body, cfile.filename)
    for table in (cfg.variables, cfg.outputs, cfg.resources, cfg.module_calls, cfg.providers):
        for key, decl in table.items():
            span(f"decl {key}", decl.span)
    for diag in cfg.diagnostics:
        span(f"diag {diag.code} {diag.message}", diag.span)
    return out


class TestReuseKeepsSpansFileAbsolute:
    """``reuse=`` is keyed on chunk text, but an AST carries the line
    numbers it was parsed at: a chunk that moved must not keep them."""

    PROGRAM = SIMPLE + TRICKY + '''
# a block the classifier complains about, so diagnostics move too
resource "oops" {
}

resource "aws_vpc" "z" {
  name       = "z"
  cidr_block = "10.9.0.0/16"
}
'''

    @staticmethod
    def edits(src, rng):
        chunks = [c.text for c in iter_chunks(src)]
        k = rng.randrange(1, len(chunks) - 1)
        moved = chunks[:k] + chunks[k + 1 :] + [chunks[k]]
        return {
            "in-place": src.replace('"app-rg"', '"app-rg%d"' % rng.randrange(10, 99)),
            "insert line above": "".join(
                chunks[:k] + ["# inserted %d\n" % k] + chunks[k:]
            ),
            "delete line": src.replace(
                "# leading comment travels with the next block\n", "", 1
            ),
            "move block": "".join(moved),
            "duplicate block": src + chunks[k],
        }

    @pytest.mark.parametrize("seed", range(6))
    def test_reused_parse_equals_cold_parse(self, seed):
        import random

        prev = Configuration.parse_streaming(self.PROGRAM)
        for name, edited in self.edits(self.PROGRAM, random.Random(seed)).items():
            assert edited != self.PROGRAM, name
            warm = Configuration.parse_streaming(edited, reuse=prev)
            cold = Configuration.parse_streaming(edited)
            assert _every_span(warm) == _every_span(cold), name
            assert str(warm.diagnostics) == str(cold.diagnostics), name
            assert warm.block_fingerprints == cold.block_fingerprints, name

    def test_the_issue_reproduction(self):
        two = (
            'resource "aws_vpc" "a" {\n  name = "a"\n}\n'
            'resource "aws_vpc" "b" {\n  name = "b"\n}\n'
        )
        prev = Configuration.parse_streaming(two)
        edited = "# one\n# two\n" + two.replace('"aws_vpc" "a"', '"aws_vpc" "a2"')
        warm = Configuration.parse_streaming(edited, reuse=prev)
        assert str(warm.resource("aws_vpc", "b").span) == "main.clc:6:1"

    def test_identical_chunks_in_one_file_report_their_own_lines(self):
        block = 'resource "aws_vpc" "a" {\n  name = "a"\n}\n'
        prev = Configuration.parse_streaming(block * 2)
        warm = Configuration.parse_streaming(block * 3, reuse=prev)
        lines = [b.span.start_line for b in warm.files[0].body.blocks]
        assert lines == [1, 4, 7]
        assert [d.span.start_line for d in warm.diagnostics] == [4, 7]

    def test_same_text_in_two_files_keeps_both_filenames(self, monkeypatch):
        import repro.lang.config as lang_config

        both = {"a.clc": SIMPLE, "b.clc": SIMPLE}
        prev = Configuration.parse_streaming(both)
        monkeypatch.setattr(
            lang_config, "parse_file", lambda *a, **k: pytest.fail("re-parsed")
        )
        warm = Configuration.parse_streaming(both, reuse=prev)
        assert all(ast.filename == key[0] for key, ast in warm._chunk_asts.items())
        assert _every_span(warm) == _every_span(prev)
