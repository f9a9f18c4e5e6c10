"""Regenerate tests/golden/lang_corpus.json.

Runs the lexer, chunker and parser *on the path* over the programs in
``lang_corpus.py`` and records what they answer: per program the
sha256 of its token dump ``(type, value, span)``, of its chunk table
``(file, start_line, fingerprint)`` and of its AST dump with spans;
for ``lexical_torture.clc`` the whole token list, and for every
malformed input the exact ``(message, span)``, in the clear.

The checked-in file was written by commit ``a3ccd4f``'s own code -- the
per-character lexer and chunker the compiled scanner replaced -- which
is what lets ``test_lang_golden.py`` stand in for them::

    PYTHONPATH=<a3ccd4f checkout>/src python tests/golden/generate_lang_golden.py

Regenerating it with the current code makes that test vacuous.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if not any(os.path.isdir(os.path.join(p, "repro")) for p in sys.path if p):
    sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))
sys.path.insert(0, HERE)

from lang_corpus import CORPUS_PATH, build_corpus  # noqa: E402


def _render(corpus) -> str:
    """JSON with one record field per line, and one token per line in
    the lists kept in the clear: a diff of the corpus reads as a diff
    of tokens."""

    def field(key, value):
        if key == "token_list":
            rows = ",\n".join("    " + json.dumps(token) for token in value)
            return f'   "token_list": [\n{rows}\n   ]'
        return f"   {json.dumps(key)}: {json.dumps(value)}"

    sections = []
    for section, records in corpus.items():
        body = ",\n".join(
            f"  {json.dumps(name)}: {{\n"
            + ",\n".join(field(k, v) for k, v in record.items())
            + "\n  }"
            for name, record in records.items()
        )
        sections.append(f" {json.dumps(section)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def main() -> None:
    import repro

    corpus = build_corpus()
    with open(CORPUS_PATH, "w") as handle:
        handle.write(_render(corpus))
    print(
        f"wrote {CORPUS_PATH}: {len(corpus['programs'])} programs, "
        f"{len(corpus['malformed'])} malformed inputs, "
        f"using {os.path.dirname(repro.__file__)}"
    )


if __name__ == "__main__":
    main()
