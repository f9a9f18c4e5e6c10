"""The programs and the dumps behind ``lang_corpus.json``.

``generate_lang_golden.py`` runs these through whatever lexer, chunker
and parser are on the path and writes what they answer;
``test_lang_golden.py`` runs them through the current ones and wants
the same. Programs come from the generators in ``src/`` (seeded, so
the corpus holds hashes and not megabytes of text), from
``lexical_torture.clc`` beside this file, and from the malformed
inputs listed here.
"""

import dataclasses
import hashlib
import json
import os
import random
from typing import Any, Dict, Iterator, List, Tuple

from repro.lang.ast_nodes import AttrAccess, ListExpr, Literal, ScopeRef
from repro.lang.chunker import iter_chunks
from repro.lang.config import Configuration
from repro.lang.diagnostics import CLCSyntaxError, SourceSpan
from repro.lang.lexer import tokenize
from repro.porting.emitter import render_value
from repro.workloads import (
    ConfigMutator,
    hub_spoke,
    microservices,
    random_dag_estate,
    scale_estate,
    two_region_estate,
    web_tier,
)

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "lang_corpus.json")
TORTURE_PATH = os.path.join(HERE, "lexical_torture.clc")

MUTANTS = 60


def torture_source() -> str:
    with open(TORTURE_PATH, encoding="utf-8", newline="") as handle:
        return handle.read()


# -- mutants: ConfigMutator edits an AST; these put the edit back in the text --


def _render_expr(expr) -> str:
    if isinstance(expr, Literal):
        return render_value(expr.value)
    if isinstance(expr, ScopeRef):
        return expr.name
    if isinstance(expr, AttrAccess):
        return f"{_render_expr(expr.obj)}.{expr.name}"
    if isinstance(expr, ListExpr):
        return "[" + ", ".join(_render_expr(item) for item in expr.items) + "]"
    raise TypeError(f"mutant renderer does not know {type(expr).__name__}")


def mutant_source(source: str, seed: int) -> str:
    """``source`` with one seeded ``ConfigMutator`` mutation applied to
    its text: attributes the mutator removed lose their lines, the ones
    it set (they carry the default span) are written after the block's
    opening line."""
    before = Configuration.parse(source)
    after = Configuration.parse(source)
    mutation = ConfigMutator(seed=seed).apply_random(after)
    lines = source.split("\n")
    (decl,) = [d for d in after.resources.values() if d.address == mutation.target]
    old_attrs = before.resources[decl.key].body.attributes
    new_attrs = decl.body.attributes
    drop = set()
    for name, attr in old_attrs.items():
        if name not in new_attrs or new_attrs[name].span == SourceSpan():
            drop.update(range(attr.span.start_line, attr.span.end_line + 1))
    added = [
        f"  {name} = {_render_expr(attr.expr)}  # mutant {seed}: {mutation.kind}"
        for name, attr in new_attrs.items()
        if attr.span == SourceSpan()
    ]
    out: List[str] = []
    for number, line in enumerate(lines, start=1):
        if number not in drop:
            out.append(line)
        if number == decl.span.start_line:
            out.extend(added)
    return "\n".join(out)


def _mutant_base(seed: int) -> str:
    rng = random.Random(seed)
    return (
        lambda: web_tier(web_vms=rng.randint(1, 4), app_vms=rng.randint(1, 3)),
        lambda: hub_spoke(spokes=rng.randint(1, 4), vms_per_spoke=rng.randint(1, 3)),
        lambda: microservices(services=rng.randint(2, 5)),
    )[seed % 3]()


def programs() -> Iterator[Tuple[str, Dict[str, str]]]:
    """``(name, {filename: source})`` for every well-formed program."""
    yield "scale_estate_1000", {"aws.clc": scale_estate(1000)}
    yield "two_region_estate_1000", {"azure.clc": two_region_estate(1000)}
    yield "cli_estate", {
        "aws.clc": scale_estate(1000),
        "azure.clc": two_region_estate(1000),
    }
    yield "web_tier", {"main.clc": web_tier()}
    yield "hub_spoke", {"main.clc": hub_spoke()}
    yield "microservices", {"main.clc": microservices()}
    yield "random_dag_estate_300_s7", {"main.clc": random_dag_estate(300, seed=7)}
    for seed in range(MUTANTS):
        yield f"mutant_{seed:02d}", {"main.clc": mutant_source(_mutant_base(seed), seed)}
    torture = torture_source()
    yield "lexical_torture", {"torture.clc": torture}
    yield "lexical_torture_crlf", {"torture.clc": torture.replace("\n", "\r\n")}


#: inputs the lexer or the parser must turn away, each for one reason
MALFORMED: List[Tuple[str, str]] = [
    ("unterminated_string_eof", 'x = "abc'),
    ("unterminated_string_after_escape", 'x = "abc\\"'),
    ("newline_in_string", 'x = "abc\ny = 1\n'),
    ("newline_in_string_crlf", 'x = "abc\r\ny = 1\r\n'),
    ("newline_in_string_after_interpolation", 'x = "a${b}\nc"\n'),
    ("bad_escape", 'x = "a\\qb"\n'),
    ("bad_escape_digit", 'x = "\\0"\n'),
    ("backslash_at_eof", 'x = "abc\\'),
    ("backslash_newline", 'x = "abc\\\ny = 1\n'),
    ("at_sign", "x = @\n"),
    ("single_quote", "x = 'single'\n"),
    ("lone_ampersand", "x = a & b\n"),
    ("lone_pipe", "x = a | b\n"),
    ("tilde_on_line_three", "a = 1\nb = 2\nc = 3 ~ 4\n"),
    ("form_feed", "x = \f1\n"),
    ("non_ascii_identifier", "é = 1\n"),
    ("lone_heredoc_opener", "x = <<"),
    ("heredoc_opener_then_space", "x = << EOT\nbody\nEOT\n"),
    ("heredoc_dash_no_word", "x = <<-\n"),
    ("unterminated_heredoc", "x = <<EOT\nnever closed\n"),
    ("heredoc_eof_after_word", "x = <<EOT"),
    ("heredoc_marker_without_newline", "x = <<EOT\nbody\nEOT"),
    ("heredoc_wrong_marker", "x = <<EOT\nbody\nEOTX\n"),
    ("unterminated_block_comment", "/* forever"),
    ("unterminated_block_comment_line_3", "a = 1\nb = 2 /* open\nc = 3\n"),
    ("block_comment_star_at_eof", "x = 1 /* almost *"),
    ("unterminated_interpolation_eof", 'x = "${'),
    ("unterminated_interpolation_open_string", 'x = "${ a"'),
    ("unterminated_interpolation_only_quote", 'x = "${"'),
    ("unterminated_interpolation_nested_brace", 'x = "${ { }"\ny = 1\n'),
    ("unterminated_interpolation_multi_line", 'x = "${ a +\n  b\ny = 2\n'),
    ("interpolation_brace_in_nested_template", 'x = "${ "a${ "}" }" }"\n'),
    ("empty_interpolation", 'x = "${}"\n'),
    ("interpolation_bad_expression", 'x = "a-${1 +}-b"\n'),
    ("interpolation_two_expressions", 'x = "${a b}"\n'),
    ("interpolation_bad_char_second_line", 'x = "${ a +\n   @ }"\n'),
    ("interpolation_bad_char_second_chunk", 'a = 1\n\nb = "zz${ 1 + ~ }"\n'),
    ("double_assign", 'resource "t" "n" {\n  name = = "m"\n}\n'),
    ("unclosed_block", 'resource "t" "n" {\n  a = 1\n'),
    ("stray_close_brace", "a = 1\n}\nb = 2\n"),
    ("unclosed_paren", "x = (1 +\n"),
    ("unclosed_list", "x = [1, 2\ny = 3\n"),
    ("object_missing_value", "x = { a = }\n"),
    ("call_missing_arg", "x = f(1,\n"),
    ("missing_assign", "x 1\n"),
    ("two_items_one_line", "x = 1 y = 2\n"),
    ("duplicate_attribute", "b {\n  a = 1\n  a = 2\n}\n"),
    ("conditional_missing_else", "x = a ? b\n"),
    ("for_missing_colon", "x = [for a in b c]\n"),
    ("for_missing_in", "x = [for a of b : a]\n"),
    ("dot_at_end", "x = a.\n"),
    ("dot_float_index", "x = a.0.1\n"),
    ("number_then_word", "x = 1e\n"),
    ("error_in_third_chunk", 'a "x" {\n}\n\n# doc\nb "y" {\n}\n\nc "z" {\n  v = 1 +\n}\n'),
]


# -- dumps ---------------------------------------------------------------------


def _plain(value: Any) -> Any:
    """``value`` as JSON data: spans and template parts become lists."""
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def token_dump(sources: Dict[str, str]) -> List[List[Any]]:
    """``[type, value, span]`` for every token of every file (the span
    names the file)."""
    out = []
    for fname in sorted(sources):
        for tok in tokenize(sources[fname], fname):
            out.append([tok.type.name, _plain(tok.value), list(tok.span)])
    return out


def chunk_table(sources: Dict[str, str]) -> List[List[Any]]:
    out = []
    for fname in sorted(sources):
        chunks = list(iter_chunks(sources[fname]))
        assert "".join(c.text for c in chunks) == sources[fname], fname
        out.extend([fname, c.start_line, c.fingerprint] for c in chunks)
    return out


def _node(node: Any) -> Any:
    if isinstance(node, SourceSpan):
        return list(node)
    if dataclasses.is_dataclass(node):
        return [type(node).__name__] + [
            _node(getattr(node, field.name)) for field in dataclasses.fields(node)
        ]
    if isinstance(node, dict):
        return [[key, _node(value)] for key, value in node.items()]
    if isinstance(node, (list, tuple)):
        return [_node(item) for item in node]
    return node


def ast_dump(config: Configuration) -> List[Any]:
    """Every file's AST, every field, every span, in parse order."""
    return [_node(cfile) for cfile in config.files]


def digest(data: Any) -> str:
    text = json.dumps(data, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def source_digest(sources: Dict[str, str]) -> str:
    return digest([[fname, sources[fname]] for fname in sorted(sources)])


def outcome(fn, *args) -> List[Any]:
    """``["ok"]`` or ``[message, span]`` of the syntax error ``fn`` raised.
    Anything else it raises is the test's failure."""
    try:
        fn(*args)
    except CLCSyntaxError as err:
        return [err.message, list(err.span) if err.span is not None else None]
    return ["ok"]


def malformed_record(text: str) -> Dict[str, Any]:
    sources = {"bad.clc": text}
    return {
        "source": text,
        "tokenize": outcome(tokenize, text, "bad.clc"),
        "parse": outcome(Configuration.parse, sources),
        "parse_streaming": outcome(Configuration.parse_streaming, sources),
        "chunk_lines": [c[1] for c in chunk_table(sources)],
    }


def program_record(sources: Dict[str, str], in_the_clear: bool = False) -> Dict[str, Any]:
    tokens = token_dump(sources)
    streamed = ast_dump(Configuration.parse_streaming(sources))
    assert streamed == ast_dump(Configuration.parse(sources))
    record: Dict[str, Any] = {
        "source_sha256": source_digest(sources),
        "tokens": len(tokens),
        "tokens_sha256": digest(tokens),
        "chunks_sha256": digest(chunk_table(sources)),
        "ast_sha256": digest(streamed),
    }
    if in_the_clear:
        record["token_list"] = tokens
        record["chunk_lines"] = [c[1] for c in chunk_table(sources)]
    return record


def build_corpus() -> Dict[str, Any]:
    return {
        "programs": {
            name: program_record(sources, in_the_clear=name.startswith("lexical_"))
            for name, sources in programs()
        },
        "malformed": {name: malformed_record(text) for name, text in MALFORMED},
    }
