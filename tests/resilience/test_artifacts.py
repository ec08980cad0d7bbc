"""ArtifactStore: content-addressed AnalysisResult caching.

One pickle per fingerprint (not per stage name), a full-fingerprint
double-check behind the path prefix, and a whole-result warm path on the
analyzer — a repeated analysis over unchanged inputs must be served from
disk with identical tables.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.campus.dataset import cached_campus_dataset
from repro.core.categorization import ChainCategory
from repro.core.chain import aggregate_chains
from repro.obs import instruments
from repro.parallel import discover_shards, ingest_shards, split_zeek_log
from repro.resilience import ArtifactStore


@pytest.fixture(scope="module")
def dataset():
    return cached_campus_dataset(seed="artifact", scale="small")


@pytest.fixture(scope="module")
def chains(dataset):
    return aggregate_chains(dataset.joined())


class TestStore:
    FP_A = "a" * 64
    #: Shares the 32-character path prefix with FP_A — a deliberate
    #: collision that must read as stale, never as a false hit.
    FP_PREFIX_TWIN = "a" * 32 + "b" * 32

    def test_save_then_load_hits(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "artifacts"))
        hits = instruments.ANALYSIS_ARTIFACTS.value(result="hit")
        store.save("analysis", self.FP_A, {"tables": [1, 2, 3]})
        hit, payload = store.load("analysis", self.FP_A)
        assert hit
        assert payload == {"tables": [1, 2, 3]}
        assert instruments.ANALYSIS_ARTIFACTS.value(result="hit") == hits + 1

    def test_absent_fingerprint_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        misses = instruments.ANALYSIS_ARTIFACTS.value(result="miss")
        assert store.load("analysis", self.FP_A) == (False, None)
        assert instruments.ANALYSIS_ARTIFACTS.value(result="miss") == \
            misses + 1

    def test_path_prefix_collision_reads_as_stale(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save("analysis", self.FP_A, "payload-a")
        assert store.path("analysis", self.FP_A) == \
            store.path("analysis", self.FP_PREFIX_TWIN)
        stale = instruments.ANALYSIS_ARTIFACTS.value(result="stale")
        assert store.load("analysis", self.FP_PREFIX_TWIN) == (False, None)
        assert instruments.ANALYSIS_ARTIFACTS.value(result="stale") == \
            stale + 1

    def test_corrupt_file_misses_instead_of_raising(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save("analysis", self.FP_A, [1])
        with open(store.path("analysis", self.FP_A), "wb") as handle:
            handle.write(b"\x80\x04 not a pickle")
        assert store.load("analysis", self.FP_A) == (False, None)

    def test_distinct_fingerprints_coexist(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save("analysis", "b" * 64, "first")
        store.save("analysis", "c" * 64, "second")
        assert store.load("analysis", "b" * 64) == (True, "first")
        assert store.load("analysis", "c" * 64) == (True, "second")
        assert len(store.artifacts_present()) == 2

    def test_kind_names_are_sanitized(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = store.path("../evil/kind", self.FP_A)
        assert os.path.dirname(path) == str(tmp_path)
        assert "/evil" not in os.path.basename(path)


class TestWarmAnalysis:
    def render(self, result):
        return {
            "table1": result.interception.category_table(result.chains),
            "table2": result.categorized.summary_rows(),
            "table3": result.hybrid.table3_rows(),
            "table8": {c.value: result.multicert_path_stats(c)
                       for c in ChainCategory},
            "figure6": result.hybrid.figure6_histogram(),
        }

    def test_second_run_served_from_disk_with_identical_tables(
            self, dataset, chains, tmp_path):
        store = ArtifactStore(str(tmp_path))
        cold = dataset.analyzer().analyze_chains(chains, artifacts=store)
        assert store.artifacts_present()
        hits = instruments.ANALYSIS_ARTIFACTS.value(result="hit")
        warm = dataset.analyzer().analyze_chains(chains, artifacts=store)
        assert instruments.ANALYSIS_ARTIFACTS.value(result="hit") == hits + 1
        assert self.render(warm) == self.render(cold)

    def test_serial_and_parallel_share_one_artifact(self, dataset,
                                                    tmp_path):
        """The ingest worker count is absent from the address: chain maps
        merged at any --jobs are identical, so one artifact serves all."""
        ssl_path, x509_path = dataset.write_zeek_logs(str(tmp_path / "logs"))
        shard_dir = tmp_path / "shards"
        split_zeek_log(ssl_path, str(shard_dir), 4)
        shutil.copy(x509_path, shard_dir / "x509.log")
        shards = discover_shards(str(shard_dir))
        store = ArtifactStore(str(tmp_path / "artifacts"))
        cold = dataset.analyzer().analyze_ingest(
            ingest_shards(shards, jobs=1), artifacts=store)
        assert len(store.artifacts_present()) == 1
        hits = instruments.ANALYSIS_ARTIFACTS.value(result="hit")
        warm = dataset.analyzer().analyze_ingest(
            ingest_shards(shards, jobs=2), artifacts=store)
        assert instruments.ANALYSIS_ARTIFACTS.value(result="hit") == hits + 1
        assert len(store.artifacts_present()) == 1
        assert self.render(warm) == self.render(cold)

    def test_different_chain_map_recomputes(self, dataset, chains,
                                            tmp_path):
        store = ArtifactStore(str(tmp_path))
        dataset.analyzer().analyze_chains(chains, artifacts=store)
        subset = dict(list(chains.items())[:10])
        dataset.analyzer().analyze_chains(subset, artifacts=store)
        # A different input is a different address — both artifacts coexist.
        assert len(store.artifacts_present()) == 2
