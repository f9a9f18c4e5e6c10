"""Compiled-artifact cache tests.

The persistent cache (``repro.compilecache``) journals the parsed
config and the expanded graph to disk. The contract under test:

* exact hit -> the cached config and graph replay without re-parsing;
* any edit -> partial hit (chunk-AST reuse only), never a stale graph;
* any corruption -- truncated file, flipped blob byte, version skew
  (including a v2 file and the v3, v4 and v5 files earlier commits
  wrote), garbage header, tampered header fields, a blob that is not a
  ``(config, graph, basis)`` triple -- degrades to a cold build,
  mirroring ``tests/test_store_torn.py``;
* the engine's warm plan and warm apply are byte-identical to cold;
* a configuration expanded through module calls is never journaled,
  so an edited module cannot be served stale.
"""

import functools
import json
import os
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud import CloudGateway
from repro.compilecache import (
    ArtifactUnreadable,
    CompileCache,
    schema_fingerprint,
    variables_fingerprint,
)
from repro.compilecache.store import FORMAT_VERSION, _header_sha, _sha, source_shas
from repro.core.engine import CloudlessEngine
from repro.graph import build_graph
from repro.lang import Configuration
from repro.lang.module_loader import DictModuleLoader
from repro.persist import load_world
from repro.workloads import scale_estate
from tests.golden.lang_corpus import ast_dump
from tests.test_world_log import Project

SOURCE = '''
resource "aws_vpc" "main" {
  name       = "main-vpc"
  cidr_block = "10.0.0.0/16"
}

resource "aws_subnet" "a" {
  name       = "subnet-a"
  vpc_id     = aws_vpc.main.id
  cidr_block = cidrsubnet(aws_vpc.main.cidr_block, 8, 1)
}

resource "aws_s3_bucket" "logs" {
  name = "logs-bucket"
}
'''

EDITED = SOURCE.replace('"logs-bucket"', '"logs-bucket-v2"')


@pytest.fixture
def gateway():
    return CloudGateway.simulated(seed=3)


@pytest.fixture
def cache(tmp_path):
    return CompileCache(str(tmp_path / "cache"))


def store_artifact(cache, gateway, texts, variables=None):
    vfp = variables_fingerprint(variables)
    sfp = schema_fingerprint(gateway.catalog)
    config = Configuration.parse_streaming(texts)
    graph = build_graph(config)
    assert cache.store(texts, vfp, sfp, config, graph)
    return vfp, sfp


class TestLookup:
    def test_exact_hit_serves_cached_graph(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        lookup = cache.load(texts, vfp, sfp)
        assert lookup is not None and lookup.exact
        assert cache.exact_hits == 1
        assert ("managed", "aws_vpc", "main") in lookup.config.resources

    def test_exact_hit_is_lazy(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        lookup = cache.load(texts, vfp, sfp)
        assert lookup is not None and lookup.exact
        assert lookup.graph is not None

    def test_edit_demotes_to_partial(self, cache, gateway):
        vfp, sfp = store_artifact(cache, gateway, {"main.clc": SOURCE})
        lookup = cache.load({"main.clc": EDITED}, vfp, sfp)
        assert lookup is not None and not lookup.exact
        assert cache.partial_hits == 1
        # partial artifacts still seed the streaming reparse
        cfg = Configuration.parse_streaming(
            {"main.clc": EDITED}, reuse=lookup.config
        )
        decl = cfg.resource("aws_s3_bucket", "logs")
        assert decl is not None

    def test_variables_change_is_a_miss(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        other = variables_fingerprint({"env": "prod"})
        assert other != vfp
        assert cache.load(texts, other, sfp) is None
        assert cache.misses == 1

    def test_schema_change_is_a_miss(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        narrower = schema_fingerprint(
            CloudGateway({"aws": gateway.planes["aws"]}, gateway.clock).catalog
        )
        assert narrower != sfp
        assert cache.load(texts, vfp, narrower) is None

    def test_the_catalog_fingerprints_as_the_gateway_did(self, gateway):
        """The digest every artifact key carries did not move when the
        catalog became data: the simulated pair's, as the program one
        commit before it (``76331b4``) computed it from a gateway's
        planes."""
        from repro.cloud import simulated_catalog

        digest = "6a593ba45da4f88e56e4d528e8c973be37aa648d498183f77d85cd84f2ea6a60"
        assert schema_fingerprint(simulated_catalog()) == digest
        assert schema_fingerprint(CloudGateway.simulated().catalog) == digest
        assert schema_fingerprint(gateway.catalog) == digest
        assert CloudlessEngine(seed=9).catalog is simulated_catalog()
        assert CloudlessEngine(gateway=gateway).catalog is gateway.catalog

    def test_the_catalog_digests_as_the_registry_did(self, gateway):
        """The digest every recorded verdict carries (under the name
        ``registry``) did not move when validation came to read the
        catalog: the simulated pair's, as the program one commit before
        it computed it from its schema registry, so every verdict on
        disk still replays."""
        from repro.cloud import simulated_catalog

        digest = "a4bd215d1de71125308da22f7ef612c226a0c1ba4c44bfb7166a4b8a1b79251f"
        assert simulated_catalog().validation_digest == digest
        assert gateway.catalog.validation_digest == digest
        pipeline = CloudlessEngine(seed=9).validation
        assert pipeline.catalog is simulated_catalog()
        assert pipeline.verdict(pipeline.validate(SOURCE))["registry"] == digest

    def test_cold_cache_is_a_miss(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp = variables_fingerprint(None)
        sfp = schema_fingerprint(gateway.catalog)
        assert cache.load(texts, vfp, sfp) is None
        assert cache.misses == 1


class TestCorruption:
    """Every way a cache file can rot must read as a cold build."""

    def setup_artifact(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp, sfp = store_artifact(cache, gateway, texts)
        return texts, vfp, sfp, cache.path_for(texts, vfp, sfp)

    @staticmethod
    def read_parts(path):
        header, blob = open(path, "rb").read().split(b"\n", 1)
        return json.loads(header), blob

    @staticmethod
    def write_parts(path, header, blob, reseal=True):
        """Rewrite the artifact; ``reseal`` recomputes the header's own
        digest so only the edited field can be what rejects it."""
        if reseal:
            header.pop("header_sha", None)
            header["header_sha"] = _header_sha(header)
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(blob)

    def assert_cold(self, cache, texts, vfp, sfp):
        assert cache.load(texts, vfp, sfp) is None
        assert cache.corrupt_rejects == 1
        assert cache.misses == 1 and cache.exact_hits == 0

    def assert_cold_when_read(self, cache, texts, vfp, sfp):
        """A blob whose digest matches is classified by its header, and
        refused -- counted a miss -- when first read."""
        lookup = cache.load(texts, vfp, sfp)
        assert lookup.exact and cache.exact_hits == 1
        assert cache.corrupt_rejects == 0
        for _ in range(2):  # refused once, counted once
            with pytest.raises(ArtifactUnreadable):
                lookup.graph
        assert cache.corrupt_rejects == 1
        assert cache.misses == 1 and cache.exact_hits == 0

    def test_truncated_payload(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[: len(blob) // 2])
        self.assert_cold(cache, texts, vfp, sfp)

    def test_flipped_payload_byte(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        self.assert_cold(cache, texts, vfp, sfp)

    def test_version_mismatch(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, blob = self.read_parts(path)
        header["version"] = FORMAT_VERSION + 1
        self.write_parts(path, header, blob)
        self.assert_cold(cache, texts, vfp, sfp)

    def test_v2_file_is_a_miss(self, cache, gateway):
        """The previous format (meta pickle + payload pickle behind a
        bare header) must classify as a miss, not be half-understood."""
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        meta = pickle.dumps({"source_sha": {}, "plan_render_z": None})
        payload = pickle.dumps({"config": None, "graph": None})
        header = {
            "version": 2,
            "meta_sha": _sha(meta),
            "meta_len": len(meta),
            "payload_sha": _sha(payload),
            "payload_len": len(payload),
        }
        self.write_parts(path, header, meta + payload, reseal=False)
        self.assert_cold(cache, texts, vfp, sfp)

    def test_parent_commits_artifact_is_a_counted_miss(self, tmp_path, gateway):
        """``fixtures/artifact_v3.clcc`` was written by the program one
        commit before AST nodes were slotted (tests/fixtures/README.md):
        its pickle is of another shape, so it must be turned away at
        the header, counted, and replaced -- never half-loaded."""
        import shutil

        cache_dir = str(tmp_path / "cache")
        engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        cache = engine.compile_cache
        texts = {"main.clc": SOURCE}
        fps = (variables_fingerprint(None), schema_fingerprint(gateway.catalog))
        fixture = os.path.join(os.path.dirname(__file__), "fixtures", "artifact_v3.clcc")
        assert json.loads(open(fixture, "rb").readline())["version"] == 3
        shutil.copy(fixture, cache.path_for(texts, *fps))

        rendered = engine.plan(SOURCE).render()
        assert rendered == CloudlessEngine(gateway=gateway).plan(SOURCE).render()
        assert (cache.misses, cache.corrupt_rejects, cache.stores) == (1, 1, 1)
        assert cache.exact_hits == cache.partial_hits == 0
        healed = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        assert healed.plan(SOURCE).render() == rendered
        assert healed.compile_cache.exact_hits == 1

    def test_garbage_header(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        open(path, "wb").write(b"not json at all\njunk")
        self.assert_cold(cache, texts, vfp, sfp)

    def test_header_not_an_object(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        open(path, "wb").write(b"[1, 2, 3]\njunk")
        self.assert_cold(cache, texts, vfp, sfp)

    def test_payload_not_an_artifact(self, cache, gateway):
        """A digest-consistent blob that is not a ``(config, graph,
        basis)`` triple is rejected when first read."""
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, _ = self.read_parts(path)
        blob = pickle.dumps({"not": "an artifact"})
        header["blob_sha"] = _sha(blob)
        header["blob_len"] = len(blob)
        self.write_parts(path, header, blob)
        self.assert_cold_when_read(cache, texts, vfp, sfp)

    NOT_DATA = ["a pair of numbers", "a call to os.system"]

    def plant(self, path, what, canary):
        """Put a blob that is no artifact's under ``path``'s own header,
        resealed: a pair of the wrong types, or a pickle that
        ``pickle.loads`` would run a shell command for (``touch canary``)."""

        class Payload:
            def __reduce__(self):
                return os.system, (f"touch {canary}",)

        blob = pickle.dumps((1, 2) if "numbers" in what else (Payload(), Payload()))
        header, _ = self.read_parts(path)
        header["blob_sha"] = _sha(blob)
        header["blob_len"] = len(blob)
        self.write_parts(path, header, blob)
        return blob

    @pytest.mark.parametrize("what", NOT_DATA)
    def test_payload_is_read_as_data(self, cache, gateway, tmp_path, what):
        """Under a header that says "exact": a pair, but not of a
        configuration and a graph; and a pair whose members are built by
        calling out of the program. Neither is an artifact's blob, and
        the second must not get to run."""
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        canary = tmp_path / "ran"
        self.plant(path, what, canary)
        self.assert_cold_when_read(cache, texts, vfp, sfp)
        assert not canary.exists()

    @pytest.mark.parametrize("what", NOT_DATA)
    def test_the_cli_plans_cold_past_a_blob_that_is_not_data(
        self, tmp_path, capsys, what
    ):
        """``clc plan`` on such a file: exit 0 and the plan ``--no-cache``
        prints (at the parent: a traceback out of ``read_data_sources``,
        and the command run)."""
        from repro.cli import main as cli_main

        project = tmp_path / "project"
        project.mkdir()
        (project / "main.clc").write_text(SOURCE)
        assert cli_main(["--chdir", str(project), "init"]) == 0
        assert cli_main(["--chdir", str(project), "plan"]) == 0
        capsys.readouterr()
        (name,) = os.listdir(project / ".clc-cache")
        path = str(project / ".clc-cache" / name)
        canary = tmp_path / "ran"
        blob = self.plant(path, what, canary)
        assert cli_main(["--chdir", str(project), "plan"]) == 0
        through_the_cache = capsys.readouterr().out
        assert not canary.exists()
        assert cli_main(["--chdir", str(project), "plan", "--no-cache"]) == 0
        assert through_the_cache == capsys.readouterr().out
        assert "3 to add" in through_the_cache
        # and the cold compile replaced it
        assert self.read_parts(path)[1] != blob

    def test_a_proven_plan_never_reads_the_blob(self, tmp_path, capsys, monkeypatch):
        """The lazy facade: under an exact header, a blob whose classes
        the allow-list refuses. A ``plan`` the world's record proves
        whole answers from the header and the state, and unpickles
        nothing; a ``plan`` that must diff a node refuses the blob -- a
        counted miss -- and compiles cold, printing what ``--no-cache``
        prints."""
        from repro.cli import main as cli_main
        from repro.compilecache.store import CacheLookup

        project = tmp_path / "project"
        project.mkdir()
        (project / "main.clc").write_text(SOURCE)

        def cli(*argv):
            capsys.readouterr()
            assert cli_main(["--chdir", str(project), *argv]) == 0
            return capsys.readouterr().out

        cli("init")
        cli("apply")
        proven = cli("plan")
        (name,) = os.listdir(project / ".clc-cache")
        path = str(project / ".clc-cache" / name)
        canary = tmp_path / "ran"
        blob = self.plant(path, "a call to os.system", canary)

        reads, caches = [], []
        materialize, load = CacheLookup._materialize, CompileCache.load

        def counted_materialize(lookup):
            reads.append(lookup.kind)
            return materialize(lookup)

        def recorded_load(cache, *args):
            caches.append(cache)
            return load(cache, *args)

        monkeypatch.setattr(CacheLookup, "_materialize", counted_materialize)
        monkeypatch.setattr(CompileCache, "load", recorded_load)
        assert cli("plan") == proven and "0 to add, 0 to change" in proven
        assert reads == [] and caches[-1].exact_hits == 1
        assert caches[-1].corrupt_rejects == 0

        cli("state", "rm", "aws_s3_bucket.logs")  # now there is one to diff
        diffed = cli("plan")
        assert reads == ["exact"] and not canary.exists()
        cache = caches[-1]
        assert (cache.exact_hits, cache.misses, cache.corrupt_rejects) == (0, 1, 1)
        assert diffed == cli("plan", "--no-cache")
        assert "1 to add, 0 to change, 0 to destroy" in diffed
        # and the cold compile replaced it
        assert self.read_parts(path)[1] != blob

    def test_an_artifact_names_the_listed_classes_only(self, tmp_path):
        """The allow-list is the artifact's own inventory: every global
        the blobs of a wide program and of the benchmark's estate name
        is on it (so they stay hits), and nothing that is not a class
        of this program is. (A program whose parse left diagnostics
        builds no graph, so no artifact holds one.)"""
        import io

        from repro.compilecache.store import ARTIFACT_CLASSES
        from repro.workloads import scale_estate, two_region_estate
        from tests.test_engine_resident import WIDE

        named = set()

        class Recording(pickle.Unpickler):
            def find_class(self, module, name):
                named.add((module, name))
                return super().find_class(module, name)

        # (a ``depends_on`` holds references: every artifact of such a
        # program was a counted miss while the list lacked their class)
        ordered = SOURCE.replace(
            'name = "logs-bucket"', 'name       = "logs-bucket"\n  depends_on = [aws_vpc.main]'
        )
        programs = [
            ({"main.clc": WIDE}, {"env": "prod"}),
            ({"aws.clc": scale_estate(40), "azure.clc": two_region_estate(40)}, None),
            ({"main.clc": ordered}, None),
        ]
        for number, (texts, variables) in enumerate(programs):
            cache_dir = str(tmp_path / f"cache-{number}")
            engine = CloudlessEngine(
                gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
            )
            engine.validate(texts, variables=variables)
            (name,) = os.listdir(cache_dir)
            _, blob = self.read_parts(os.path.join(cache_dir, name))
            Recording(io.BytesIO(blob)).load()
            again = CloudlessEngine(
                gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
            )
            again.validate(texts, variables=variables)
            assert again.compile_cache.exact_hits == 1, number
        assert len(named) > 20
        for module, name in named:
            allowed = ARTIFACT_CLASSES[module]
            assert allowed is None or name in allowed, (module, name)
        assert all(module.startswith("repro.") for module in ARTIFACT_CLASSES)

    def test_payload_does_not_unpickle(self, cache, gateway):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, _ = self.read_parts(path)
        blob = b"\x80\x05 definitely not a pickle"
        header["blob_sha"] = _sha(blob)
        header["blob_len"] = len(blob)
        self.write_parts(path, header, blob)
        self.assert_cold_when_read(cache, texts, vfp, sfp)

    def test_exact_header_wrong_blob_digest(self, cache, gateway):
        """The header alone says "exact" (every source sha matches, its
        own digest is sealed) but the blob is not the one it names: the
        hit is refused before anything is unpickled."""
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, blob = self.read_parts(path)
        header["blob_sha"] = _sha(b"some other blob")
        self.write_parts(path, header, blob)
        self.assert_cold(cache, texts, vfp, sfp)

    def test_tampered_meta_rejected(self, cache, gateway):
        """The header carries the exactness table; an edited field must
        fail the header's own digest and read as a cold build, never
        redirect classification."""
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, blob = self.read_parts(path)
        header["source_sha"]["main.clc"] = _sha(EDITED.encode())
        self.write_parts(path, header, blob, reseal=False)
        # without the seal this would have been served as a partial hit
        self.assert_cold(cache, {"main.clc": EDITED}, vfp, sfp)

    @pytest.mark.parametrize("field", ["variables_fp", "schema_fp"])
    def test_resealed_foreign_fingerprint_rejected(self, cache, gateway, field):
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, blob = self.read_parts(path)
        header[field] = _sha(b"someone else's")
        self.write_parts(path, header, blob)
        self.assert_cold(cache, texts, vfp, sfp)

    def test_corrupt_artifact_still_plans_correctly(self, tmp_path):
        """End to end: a rotted artifact costs a cold build and is
        rewritten, and the plan is the cold plan."""
        cache_dir = str(tmp_path / "cache")
        cold = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        expected = cold.plan(SOURCE).render()
        (artifact,) = [
            os.path.join(cache_dir, f) for f in os.listdir(cache_dir)
        ]
        blob = bytearray(open(artifact, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(artifact, "wb").write(bytes(blob))

        again = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        assert again.plan(SOURCE).render() == expected
        assert again.compile_cache.corrupt_rejects == 1
        assert again.compile_cache.stores == 1
        healed = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        assert healed.plan(SOURCE).render() == expected
        assert healed.compile_cache.exact_hits == 1


class TestSlottedNodesPickle:
    def test_config_round_trips(self):
        from tests.test_chunker import TRICKY, _every_span

        config = Configuration.parse_streaming(SOURCE + TRICKY)
        blob = pickle.dumps(config, protocol=pickle.HIGHEST_PROTOCOL)
        back = pickle.loads(blob)
        assert _every_span(back) == _every_span(config)
        assert back.block_fingerprints == config.block_fingerprints
        assert back._chunk_asts.keys() == config._chunk_asts.keys()
        block = back.files[0].body.blocks[0]
        assert not hasattr(block, "__dict__")
        assert repr(back.files[0].body) == repr(config.files[0].body)
        # and the copy still seeds a reuse parse
        again = Configuration.parse_streaming(EDITED + TRICKY, reuse=back)
        shared = set(again._chunk_asts) & set(back._chunk_asts)
        assert len(shared) == len(back._chunk_asts) - 1


class TestFieldsCodec:
    """An artifact writes every dataclass it admits as its class and its
    fields; read back, the ASTs are what a fresh parse makes."""

    @staticmethod
    def through_the_codec(obj):
        import io

        from repro.compilecache.store import _ArtifactUnpickler, _codec

        buffer = io.BytesIO()
        pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
        pickler.dispatch_table = _codec()
        pickler.dump(obj)
        return _ArtifactUnpickler(io.BytesIO(buffer.getvalue())).load()

    def test_the_corpus_reads_back_as_a_fresh_parse(self):
        from tests.golden.lang_corpus import ast_dump, programs

        for name, sources in programs():
            if name == "cli_estate":
                continue  # the next test carries it through the cache
            back = self.through_the_codec(Configuration.parse_streaming(sources))
            fresh = Configuration.parse_streaming(sources)
            assert ast_dump(back) == ast_dump(fresh), name
            assert back.block_fingerprints == fresh.block_fingerprints, name
            assert list(back._chunk_asts) == list(fresh._chunk_asts), name

    def test_the_benchmark_estate_through_the_cache(self, tmp_path):
        """The 1,993-resource estate of the CLI benchmark, validated and
        stored, then read by a partial hit: the configuration is a fresh
        parse's, the graph holds the same instances, and the blob is
        smaller than the default encoding of the same three parts."""
        from repro.compilecache.store import CompileCache as Cache
        from repro.workloads import scale_estate, two_region_estate
        from tests.golden.lang_corpus import ast_dump

        sources = {"aws.clc": scale_estate(1000), "azure.clc": two_region_estate(1000)}
        gateway = CloudGateway.simulated(seed=3)
        cache_dir = str(tmp_path / "cache")
        engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        compiled = engine.compile(sources)
        assert engine.validate(compiled).ok
        (name,) = os.listdir(cache_dir)
        header, blob = TestCorruption.read_parts(os.path.join(cache_dir, name))

        edited = dict(sources, **{"aws.clc": sources["aws.clc"] + "\n"})
        lookup = Cache(cache_dir).load(
            edited, variables_fingerprint(None), schema_fingerprint(gateway.catalog)
        )
        assert lookup.kind == "partial"
        fresh = Configuration.parse_streaming(sources)
        assert ast_dump(lookup.config) == ast_dump(fresh)
        assert sorted(lookup.graph.nodes) == sorted(compiled.graph.nodes)
        assert len(lookup.graph) == 1993
        assert lookup.basis.config is lookup.config
        assert lookup.basis.table.entries.keys() == fresh.resources.keys()
        default = pickle.dumps(
            (compiled.config, compiled.graph, lookup.basis),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert len(blob) == header["blob_len"] < 0.9 * len(default)


class TestTheBasisIsData:
    """The third part of a blob is read as data too: anything but a
    validation basis about the blob's own configuration costs the next
    validation its scope -- counted -- and never the chunks, the graph
    or the verdict."""

    VARIANTS = [
        "not a basis", "another configuration", "types in a list",
        "a severity that is text", "attributes that are not data",
        "parts in a list", "an entry with no parts",
    ]

    @staticmethod
    def spoil(basis, what):
        from repro.lang.diagnostics import Diagnostic
        from repro.types.checker import DeclEntry

        if what == "not a basis":
            return {"not": "a basis"}
        entries = basis.table.entries
        entry = entries[("managed", "aws_s3_bucket", "logs")]
        if what == "another configuration":
            basis.config = Configuration()
        elif what == "types in a list":
            entry.types = list(entry.types)
        elif what == "a severity that is text":
            entry.types = (Diagnostic("error", "made up"),)
        elif what == "attributes that are not data":
            entry._attrs = {"name": ("a", "tuple")}
        elif what == "parts in a list":
            entry.parts = list(entry.parts)
        else:
            entries[("managed", "aws_s3_bucket", "logs")] = DeclEntry.__new__(DeclEntry)
        return basis

    @pytest.mark.parametrize("what", VARIANTS)
    def test_a_part_that_is_no_basis_validates_whole(self, tmp_path, what):
        import io

        from repro import perf
        from repro.compilecache.store import UNREADABLE, _ArtifactUnpickler

        gateway = CloudGateway.simulated(seed=3)
        cache_dir = str(tmp_path / "cache")
        assert CloudlessEngine(gateway=gateway, cache_dir=cache_dir).validate(SOURCE).ok
        (name,) = os.listdir(cache_dir)
        path = os.path.join(cache_dir, name)
        header, blob = TestCorruption.read_parts(path)
        config, graph, basis = _ArtifactUnpickler(io.BytesIO(blob)).load()
        blob = pickle.dumps((config, graph, self.spoil(basis, what)))
        header["blob_sha"] = _sha(blob)
        header["blob_len"] = len(blob)
        TestCorruption.write_parts(path, header, blob)

        edited = SOURCE.replace('"main-vpc"', '"main-vpc-2"')
        engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        perf.reset()
        perf.enable()
        try:
            compiled = engine.compile(edited)
            report = engine.validate(compiled)
            moved = dict(perf.snapshot()["counters"])
        finally:
            perf.disable()
            perf.reset()
        cache = engine.compile_cache
        assert (cache.partial_hits, cache.corrupt_rejects, cache.stores) == (1, 0, 1)
        assert moved["lang.chunks_parsed"] == 1  # the chunks still served
        assert moved["validate.full.unreadable"] == 1
        assert engine.last_validation_scope == (3, 3)
        fresh = CloudlessEngine(gateway=gateway).validation.validate(
            Configuration.parse_streaming(edited)
        )
        assert report.diagnostics == fresh.diagnostics
        assert report.stage_errors == fresh.stage_errors
        # the replacement reads
        lookup = CompileCache(cache_dir).load(
            {"main.clc": SOURCE}, variables_fingerprint(None), schema_fingerprint(gateway.catalog)
        )
        assert lookup.kind == "partial" and lookup.basis is not UNREADABLE
        assert lookup.basis.config is lookup.config

    def test_a_stored_warning_is_carried(self, tmp_path, monkeypatch):
        """The type stage keeps its diagnostics per declaration, and an
        artifact holds them: a warning lets the validation pass and so
        is stored with it (no built-in check warns; this one is
        planted)."""
        from repro.lang.diagnostics import Severity
        from repro.types.checker import TypeChecker

        real = TypeChecker._check_resource

        def warning_too(checker, decl):
            real(checker, decl)
            if decl.name == "logs":
                checker.sink.warning("logs: planted", decl.span, "TEST001")

        monkeypatch.setattr(TypeChecker, "_check_resource", warning_too)
        gateway = CloudGateway.simulated(seed=3)
        cache_dir = str(tmp_path / "cache")
        first = CloudlessEngine(gateway=gateway, cache_dir=cache_dir).validate(SOURCE)
        assert first.ok and [d.code for d in first.diagnostics] == ["TEST001"]

        edited = SOURCE.replace('"main-vpc"', '"main-vpc-2"')
        engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        compiled = engine.compile(edited)
        assert compiled.config is not None and engine.compile_cache.partial_hits == 1
        carried = engine._validation_basis.table.entries[("managed", "aws_s3_bucket", "logs")]
        (warning,) = carried.types
        assert warning.severity is Severity.WARNING
        report = engine.validate(compiled)
        assert engine.last_validation_scope == (1, 3)
        assert report.diagnostics == CloudlessEngine(gateway=gateway).validate(edited).diagnostics
        assert report.diagnostics[0] is warning


class TestEngineWarmPath:
    def test_warm_plan_is_byte_identical(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        cold_plan = cold.plan(SOURCE)
        assert cold.compile_cache.stores == 1

        warm = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        warm_plan = warm.plan(SOURCE)
        assert warm.compile_cache.exact_hits == 1
        assert warm_plan.render() == cold_plan.render()
        assert len(warm_plan.changes) == len(cold_plan.changes)
        # nothing about the sources changed, so nothing is rewritten
        assert warm.compile_cache.stores == 0

        bare = CloudlessEngine(gateway=CloudGateway.simulated(seed=3))
        assert bare.plan(SOURCE).render() == cold_plan.render()

    def test_a_version_5_artifact_is_a_counted_miss(self, tmp_path):
        """``fixtures/artifact_v5_a3ccd4f.clcc`` was written by the program
        one commit before the compiled scanner replaced the per-character
        lexer and chunker (tests/fixtures/README.md). Version 6 moved the
        blob to ``(config, graph, basis)`` and its encoding to fields, so
        the file is turned away at the header, counted, and replaced, and
        the plan is the cold one. What it holds is still, span for span
        and chunk for chunk, what the current lexer, chunker and parser
        make of the same text."""
        import io
        import shutil

        from repro.compilecache.store import _ArtifactUnpickler
        from repro.workloads import web_tier
        from tests.golden.lang_corpus import ast_dump

        source = web_tier()
        gateway = CloudGateway.simulated(seed=3)
        cache_dir = str(tmp_path / "cache")
        engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        cache = engine.compile_cache
        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "artifact_v5_a3ccd4f.clcc"
        )
        header, blob = TestCorruption.read_parts(fixture)
        assert header["version"] == 5 != FORMAT_VERSION
        fps = (variables_fingerprint(None), schema_fingerprint(gateway.catalog))
        path = cache.path_for({"main.clc": source}, *fps)
        shutil.copy(fixture, path)

        fresh = Configuration.parse_streaming({"main.clc": source})
        config, _graph = _ArtifactUnpickler(io.BytesIO(blob)).load()
        assert ast_dump(config) == ast_dump(fresh)
        assert config.block_fingerprints == fresh.block_fingerprints
        assert list(config._chunk_asts) == list(fresh._chunk_asts)

        compiled = engine.compile(source)
        assert (cache.exact_hits, cache.partial_hits) == (0, 0)
        assert (cache.misses, cache.corrupt_rejects) == (1, 1)
        assert engine.validate(compiled).ok and cache.stores == 1
        assert TestCorruption.read_parts(path)[0]["version"] == FORMAT_VERSION
        assert engine.plan(compiled).render() == CloudlessEngine(
            gateway=gateway
        ).plan(source).render()
        healed = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        assert healed.compile(source).verdict is not None
        assert healed.compile_cache.exact_hits == 1

    def test_a_version_6_artifact_is_a_counted_miss(self, tmp_path):
        """``fixtures/artifact_v6_76331b4.clcc`` was written by the
        program one commit before the catalog became data
        (tests/fixtures/README.md). The current program still looks for
        it under the name it was written as, but version 7 put stamps
        after the blob, so the file is turned away at the header,
        counted, and replaced by a version-7 blob, and the plan is the
        cold one."""
        import shutil

        from repro.perf import PERF
        from repro.workloads import web_tier

        source = web_tier()
        gateway = CloudGateway.simulated(seed=3)
        cache_dir = str(tmp_path / "cache")
        engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        cache = engine.compile_cache
        fixture = os.path.join(
            os.path.dirname(__file__), "fixtures", "artifact_v6_76331b4.clcc"
        )
        assert TestCorruption.read_parts(fixture)[0]["version"] == 6 != FORMAT_VERSION
        path = cache.path_for(
            {"main.clc": source},
            variables_fingerprint(None),
            schema_fingerprint(engine.catalog),
        )
        assert os.path.basename(path) == "5963a09e8ea37da09b7cfcf4369cc944.clcc"
        shutil.copy(fixture, path)
        PERF.reset()
        PERF.enable()
        try:
            compiled = engine.compile(source)
            assert engine.validate(compiled).ok
            counters = dict(PERF.counters)
        finally:
            PERF.disable()
            PERF.reset()
        assert (cache.exact_hits, cache.partial_hits) == (0, 0)
        assert (cache.misses, cache.corrupt_rejects) == (1, 1)
        assert counters.get("validate.replayed") is None
        assert (cache.blob_writes, cache.stamps) == (1, 0)
        assert counters["compilecache.blob_writes"] == 1
        assert TestCorruption.read_parts(path)[0]["version"] == FORMAT_VERSION
        assert engine.plan(compiled).render() == CloudlessEngine(
            gateway=gateway
        ).plan(source).render()
        healed = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
        assert healed.compile(source).verdict is not None
        assert healed.compile_cache.exact_hits == 1

    def test_warm_apply_matches_cold_apply(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        cold_res = cold.apply(SOURCE)
        assert cold_res.ok

        warm = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir
        )
        warm_res = warm.apply(SOURCE)
        assert warm_res.ok
        assert warm.compile_cache.exact_hits >= 1
        assert (
            warm_res.apply.state.content_hash()
            == cold_res.apply.state.content_hash()
        )


class TestModulesNotJournaled:
    ROOT = '''
module "m" {
  source = "./m"
}
'''

    @staticmethod
    def module(name):
        return {"main.clc": f'resource "aws_s3_bucket" "b" {{ name = "bucket-{name}" }}\n'}

    def test_edited_module_is_not_served_stale(self, tmp_path):
        """Module text is outside the exactness test (only the root
        files are hashed), so a module-expanded graph is never stored."""
        cache_dir = str(tmp_path / "cache")
        first = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3),
            loader=DictModuleLoader({"./m": self.module("one")}),
            cache_dir=cache_dir,
        )
        assert "bucket-one" in first.plan(self.ROOT).render()
        assert first.compile_cache.stores == 0

        second = CloudlessEngine(
            gateway=CloudGateway.simulated(seed=3),
            loader=DictModuleLoader({"./m": self.module("two")}),
            cache_dir=cache_dir,
        )
        rendered = second.plan(self.ROOT).render()
        assert "bucket-two" in rendered and "bucket-one" not in rendered
        assert second.compile_cache.exact_hits == 0


# -- the blob and its stamps -------------------------------------------------

SCALE = scale_estate(60)


def tagged(text, service, revision):
    """Tag one two-instance VM block: two in-place updates."""
    edited, n = re.subn(
        r'tags    = \{ service = "%s"(?:, rev = "[^"]*")? \}' % service,
        f'tags    = {{ service = "{service}", rev = "{revision}" }}',
        text,
    )
    assert n == 1, service
    return edited


def vm_key(service):
    return ["managed", "aws_virtual_machine", service.replace("-", "_") + "_vm"]


class TestStamps:
    """A day-2 edit stamps the artifact: the blob is written by the
    compile that parsed most of it, and what was re-parsed since is
    what the next plan re-diffs beside its own edit."""

    @staticmethod
    def lookup(project, text):
        cache = CompileCache(os.path.join(project.directory, ".clc-cache"))
        lookup = cache.load(
            {"main.clc": text},
            variables_fingerprint({}),
            schema_fingerprint(CloudlessEngine().catalog),
        )
        assert lookup is not None
        return lookup

    @staticmethod
    def applied(project, capsys):
        """``apply`` through the CLI; its plan line and the compile-cache
        writes it counted."""
        capsys.readouterr()
        project("apply")
        (line,) = [l for l in capsys.readouterr().out.splitlines() if l.startswith("Plan:")]
        writes = {
            name: project.moved.get(f"compilecache.{name}", 0)
            for name in ("blob_writes", "stamps")
        }
        return line, writes

    def test_every_edit_stamps_and_only_the_cold_apply_writes_a_blob(
        self, tmp_path, capsys
    ):
        project = Project(tmp_path / "project", {"main.clc": SCALE})
        assert self.applied(project, capsys)[1] == {"blob_writes": 1, "stamps": 0}
        text = SCALE
        for cycle in range(5):
            text = tagged(text, f"scale-{cycle}", f"c{cycle}")
            project.write({"main.clc": text})
            line, writes = self.applied(project, capsys)
            assert line == "Plan: 0 to add, 2 to change, 0 to destroy.", cycle
            assert writes == {"blob_writes": 0, "stamps": 1}, cycle
            # the plan of what the apply left reads the stamp only
            assert project("plan")["plan.proven"] == 1
            assert project.moved.get("compilecache.stamps", 0) == 0
        lookup = self.lookup(project, text)
        assert lookup.exact and not lookup.fresh
        assert lookup.reparsed["resources"] == [vm_key(f"scale-{c}") for c in range(5)]
        # the blob is still the cold apply's, and the hit reads as it
        config = lookup.config
        assert ast_dump(config) == ast_dump(Configuration.parse_streaming({"main.clc": text}))
        assert lookup.graph is None  # the verb builds it

        # an edit that re-parses most of the program writes a blob again,
        # and nothing is re-parsed since it
        text = "# moved down a line\n" + text
        project.write({"main.clc": text})
        assert self.applied(project, capsys) == (
            "Plan: 0 to add, 0 to change, 0 to destroy.",
            {"blob_writes": 1, "stamps": 0},
        )
        lookup = self.lookup(project, text)
        assert lookup.exact and lookup.fresh
        assert not any(lookup.reparsed.values())

    def test_stamps_that_would_outweigh_the_blob_write_one(self, tmp_path):
        gateway = CloudGateway.simulated(seed=3)
        cache_dir = str(tmp_path / "cache")
        assert CloudlessEngine(gateway=gateway, cache_dir=cache_dir).validate(SCALE).ok
        (name,) = os.listdir(cache_dir)
        blob_len = TestCorruption.read_parts(os.path.join(cache_dir, name))[0]["blob_len"]
        text, stamped = SCALE, 0
        for cycle in range(200):
            text = tagged(text, "scale-1", f"c{cycle}")
            engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
            assert engine.validate(text).ok
            cache = engine.compile_cache
            if cache.blob_writes:
                break
            assert cache.stamps == 1
            stamped = os.path.getsize(os.path.join(cache_dir, name)) - blob_len
        else:
            raise AssertionError("the stamps outgrew the blob")
        header, rest = TestCorruption.read_parts(os.path.join(cache_dir, name))
        assert len(rest) == header["blob_len"]  # a blob, and no stamp
        assert stamped <= blob_len + len(json.dumps(header)) + 1

    def test_a_restored_block_is_re_diffed(self, tmp_path, capsys):
        """Edit a block, apply, restore the blob's text, apply: the
        restored block's chunks are the blob's again, so only the names
        the stamp re-parsed say that the state holds the edit."""
        project = Project(tmp_path / "project", {"main.clc": SCALE})
        self.applied(project, capsys)
        project.write({"main.clc": tagged(SCALE, "scale-3", "x")})
        assert self.applied(project, capsys)[0] == "Plan: 0 to add, 2 to change, 0 to destroy."
        project.write({"main.clc": SCALE})
        line, writes = self.applied(project, capsys)
        assert line == "Plan: 0 to add, 2 to change, 0 to destroy."
        assert project.moved["plan.basis.woken"] == 1 and writes["stamps"] == 1
        self.assert_converged(project, capsys, SCALE)

    def test_a_moved_block_converges(self, tmp_path, capsys):
        project = Project(tmp_path / "project", {"main.clc": SCALE})
        self.applied(project, capsys)
        # the last service's VM block, edited, to the end of the file:
        # the two blocks below it move up, and the rest is the blob's
        block = re.search(r'resource "aws_virtual_machine" "scale_7_vm" \{.*?\n\}\n', SCALE, re.S)
        moved = SCALE.replace(block.group(0), "") + "\n" + tagged(block.group(0), "scale-7", "x")
        project.write({"main.clc": moved})
        assert self.applied(project, capsys) == (
            "Plan: 0 to add, 2 to change, 0 to destroy.",
            {"blob_writes": 0, "stamps": 1},
        )
        assert vm_key("scale-7") in self.lookup(project, moved).reparsed["resources"]
        project.write({"main.clc": SCALE})
        line, writes = self.applied(project, capsys)
        assert line == "Plan: 0 to add, 2 to change, 0 to destroy."
        assert project.moved["plan.basis.woken"] == 1 and writes["stamps"] == 1
        self.assert_converged(project, capsys, SCALE)

    @staticmethod
    def assert_converged(project, capsys, text):
        for flags in ((), ("--no-cache",)):
            capsys.readouterr()
            project("plan", *flags)
            assert "Plan: 0 to add, 0 to change, 0 to destroy." in capsys.readouterr().out
        cold = CloudlessEngine(seed=3)
        assert cold.apply(text).ok
        assert load_world(project.world).state.content_hash() == cold.state.content_hash()

    def test_a_stale_blob_plans_what_no_cache_plans_after_state_rm(self, tmp_path, capsys):
        project = Project(tmp_path / "project", {"main.clc": SCALE})
        self.applied(project, capsys)
        text = tagged(SCALE, "scale-2", "x")
        project.write({"main.clc": text})
        self.applied(project, capsys)
        project("state", "rm", "aws_load_balancer.scale_1_lb")
        assert not self.lookup(project, text).fresh

        def plan(*flags):
            capsys.readouterr()
            project("plan", *flags)
            return capsys.readouterr().out

        stale = plan()
        assert project.moved["plan.basis.woken"] == 1
        assert project.moved["graph.builds"] == 1  # the stale blob's hit builds it
        assert stale == plan("--no-cache")
        assert "Plan: 1 to add, 1 to change, 0 to destroy." in stale  # and its dns record


@functools.cache
def stamped_artifact():
    """A cold compile's blob and three stamps over it, one per fresh
    engine: ``(file bytes, where the blob starts and ends, where each
    stamp ends, the four texts, their cold plans and AST dumps)``."""
    import tempfile

    texts = [SCALE]
    for cycle in range(3):
        texts.append(tagged(texts[-1], f"scale-{cycle}", f"c{cycle}"))
    with tempfile.TemporaryDirectory() as cache_dir:
        for n, text in enumerate(texts):
            engine = CloudlessEngine(gateway=CloudGateway.simulated(seed=3), cache_dir=cache_dir)
            assert engine.validate(text).ok
            assert (engine.compile_cache.stamps, engine.compile_cache.blob_writes) == (
                (1, 0) if n else (0, 1)
            )
        (name,) = os.listdir(cache_dir)
        with open(os.path.join(cache_dir, name), "rb") as handle:
            data = handle.read()
    blob_start = data.index(b"\n") + 1
    blob_end = blob_start + json.loads(data[:blob_start])["blob_len"]
    ends, at = [], blob_end
    for _ in range(3):
        at = data.index(b"\n", at) + 1
        ends.append(at)
    assert ends[-1] == len(data)
    colds = []
    for text in texts:
        config = Configuration.parse_streaming({"main.clc": text})
        plan = CloudlessEngine(gateway=CloudGateway.simulated(seed=3)).plan(config)
        colds.append((plan.render(), ast_dump(config)))
    return data, blob_start, blob_end, ends, texts, colds


class TestDamagedStamps:
    @settings(max_examples=120, deadline=None)
    @given(
        damage=st.sampled_from(["truncate", "flip blob", "flip stamps"]),
        at=st.integers(min_value=0, max_value=10**9),
        mask=st.integers(min_value=1, max_value=255),
        which=st.integers(min_value=0, max_value=3),
    )
    def test_a_damaged_artifact_reads_as_a_prior_stamp_or_a_counted_miss(
        self, damage, at, mask, which
    ):
        """Whatever the damage, the lookup is the last stamp before it
        (a torn tail), a partial hit, or a counted miss -- never an
        error -- and what the verb compiles is the cold compile."""
        import tempfile

        data, blob_start, blob_end, ends, texts, colds = stamped_artifact()
        damaged = bytearray(data)
        if damage == "truncate":
            where = at % (len(data) + 1)
            del damaged[where:]
        else:
            low, high = (blob_start, blob_end) if damage == "flip blob" else (blob_end, len(data))
            where = low + at % (high - low)
            damaged[where] ^= mask
        # stamps wholly before the damage are untouched
        untouched = sum(end <= where for end in ends)
        gateway = CloudGateway.simulated(seed=3)
        with tempfile.TemporaryDirectory() as cache_dir:
            engine = CloudlessEngine(gateway=gateway, cache_dir=cache_dir)
            cache = engine.compile_cache
            text = {"main.clc": texts[which]}
            fps = (variables_fingerprint(None), schema_fingerprint(gateway.catalog))
            with open(cache.path_for(text, *fps), "wb") as handle:
                handle.write(damaged)
            lookup = CompileCache(cache_dir).load(text, *fps)
            compiled = engine.compile(texts[which])
            rendered = engine.plan(compiled).render()
        assert (rendered, ast_dump(compiled.config)) == colds[which]
        if lookup is None:
            assert cache.misses == 1 and cache.corrupt_rejects == 1
            return
        # the stamp it stands for: the last one untouched, or a damaged
        # one that still says the same (a flipped blank in its JSON)
        stands_for = [
            n for n in range(4)
            if lookup.artifact["source_sha"] == source_shas({"main.clc": texts[n]})
        ]
        assert stands_for in ([untouched], [3])
        assert lookup.exact == (stands_for == [which])
        assert cache.misses == cache.corrupt_rejects == 0
