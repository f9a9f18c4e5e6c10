"""Compiled-artifact cache tests.

The persistent cache (``repro.compilecache``) journals the parsed
config and the expanded graph to disk. The contract under test:

* exact hit -> the cached config and graph replay without re-parsing;
* any edit -> partial hit (chunk-AST reuse only), never a stale graph;
* any corruption -- truncated file, flipped blob byte, version skew
  (including a v2 file and the previous commit's v3), garbage header, tampered header fields, a blob
  that is not a ``(config, graph)`` pair -- degrades to a cold build,
  mirroring ``tests/test_store_torn.py``;
* the engine's warm plan and warm apply are byte-identical to cold;
* a configuration expanded through module calls is never journaled,
  so an edited module cannot be served stale.
"""

import json
import os
import pickle

import pytest

from repro.cloud import CloudGateway
from repro.compilecache import (
    CompileCache,
    schema_fingerprint,
    variables_fingerprint,
)
from repro.compilecache.store import FORMAT_VERSION, _header_sha, _sha
from repro.core.engine import CloudlessEngine
from repro.graph import build_graph
from repro.lang import Configuration
from repro.lang.module_loader import DictModuleLoader

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
    sfp = schema_fingerprint(gateway)
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
            CloudGateway({"aws": gateway.planes["aws"]}, gateway.clock)
        )
        assert narrower != sfp
        assert cache.load(texts, vfp, narrower) is None

    def test_cold_cache_is_a_miss(self, cache, gateway):
        texts = {"main.clc": SOURCE}
        vfp = variables_fingerprint(None)
        sfp = schema_fingerprint(gateway)
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
        fps = (variables_fingerprint(None), schema_fingerprint(gateway))
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
        """A digest-consistent blob that is not a ``(config, graph)``
        pair is rejected at load."""
        texts, vfp, sfp, path = self.setup_artifact(cache, gateway)
        header, _ = self.read_parts(path)
        blob = pickle.dumps({"not": "an artifact"})
        header["blob_sha"] = _sha(blob)
        header["blob_len"] = len(blob)
        self.write_parts(path, header, blob)
        self.assert_cold(cache, texts, vfp, sfp)

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
        self.assert_cold(cache, texts, vfp, sfp)
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

        programs = [
            ({"main.clc": WIDE}, {"env": "prod"}),
            ({"aws.clc": scale_estate(40), "azure.clc": two_region_estate(40)}, None),
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
        self.assert_cold(cache, texts, vfp, sfp)

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

    def test_the_parent_commits_artifact_is_an_exact_hit(self, tmp_path):
        """``fixtures/artifact_v5_a3ccd4f.clcc`` was written by the program
        one commit before the compiled scanner replaced the per-character
        lexer and chunker (tests/fixtures/README.md). The format did not
        move, so a ``.clc-cache/`` that commit left behind is still
        served -- and what it holds is what the new lexer, chunker and
        parser make of the same text, span for span, chunk for chunk."""
        import shutil

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
        with open(fixture, "rb") as handle:
            assert json.loads(handle.readline())["version"] == FORMAT_VERSION == 5
        fps = (variables_fingerprint(None), schema_fingerprint(gateway))
        shutil.copy(fixture, cache.path_for({"main.clc": source}, *fps))

        compiled = engine.compile(source)
        assert (cache.exact_hits, cache.partial_hits, cache.misses) == (1, 0, 0)
        assert engine.validate(compiled).ok and compiled.verdict is not None
        fresh = Configuration.parse_streaming({"main.clc": source})
        assert ast_dump(compiled.config) == ast_dump(fresh)
        assert compiled.config.block_fingerprints == fresh.block_fingerprints
        assert list(compiled.config._chunk_asts) == list(fresh._chunk_asts)
        assert engine.plan(compiled).render() == CloudlessEngine(
            gateway=gateway
        ).plan(source).render()
        assert cache.stores == 0

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
