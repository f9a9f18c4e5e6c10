"""``python -m repro`` with the seam wrappers installed.

Usage: ``python traced_cli.py SPANS_FILE <repro argv...>``. Does what
``repro/__main__.py`` does, inside a tracer, and leaves the spans and
the program's own perf counters in SPANS_FILE for the parent to adopt.
Used by the traced pass only: the untraced pass runs the real
``python -m repro``, so end-to-end numbers never include this file.
"""

from __future__ import annotations

import json
import sys

from tracing import SEAMS, Tracer


def main(argv) -> int:
    spans_file, repro_argv = argv[0], argv[1:]
    tracer = Tracer()
    # a one-shot CLI process never starts the service tier
    tracer.install(seam for seam in SEAMS if seam.layer != "service")

    import repro.cli
    import repro.perf

    repro.perf.enable()
    code = 1
    try:
        # through the module attribute, so the cli.main seam is the root
        code = repro.cli.main(repro_argv)
    finally:
        tracer.restore()
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": tracer.spans, "perf": repro.perf.snapshot()["counters"]},
                handle,
            )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
