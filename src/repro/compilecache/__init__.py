"""Persistent compiled-artifact cache for cold-start elimination.

Parsing and expanding an estate dominates cold-start wall time; none
of that work depends on anything but the source text, the variable
values, and the provider schemas. This package journals one artifact
per workload -- the parsed :class:`Configuration` (with its chunk-AST
table), the expanded :class:`ResourceGraph` and the validation verdict
reached on them -- to disk, so a second
``validate``/``plan``/``apply``/``resume`` of unchanged sources replays
them instead of rebuilding and re-validating, and an edited run
re-parses only the chunks that changed. Planning is never cached: a
plan depends on the state, which every apply changes.

Robustness mirrors the world file: a versioned JSON header carries the
per-file source digests and the blob digest, a blob is written through
a temp-file + fsync + rename, a day-2 edit appends a sealed stamp after
it instead (a torn last stamp is dropped), and *any* other mismatch
(torn blob, version skew, fingerprint drift, a blob that does not
unpickle when first read) falls back to a cold build -- a cache can be
deleted at any time without losing anything but warm-up time.
"""

from .._exports import export_table

__all__, __getattr__, __dir__ = export_table(
    __name__,
    {
        "store": (
            "ArtifactUnreadable",
            "CacheLookup",
            "CompileCache",
            "schema_fingerprint",
            "source_shas",
            "variables_fingerprint",
        ),
    },
)
