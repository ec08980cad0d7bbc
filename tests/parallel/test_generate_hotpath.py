"""The generation hot-path memos change speed, never bytes.

Generates the small-scale dataset twice per seed: once as shipped
(memoized validation, bulk UID draws, cached server addresses, hoisted
first-appearance scan, pool workers) and once through the plain path
(one ``choice`` per UID character, every validation walked in full,
every server address re-drawn, inline).  Both the serial write-out and
the shard files must match byte for byte.  No golden digest is involved,
so the comparison holds on any Python version.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.campus.dataset import build_campus_dataset, resolve_scale
from repro.campus.workload import GENERATION_SHARDS, STUDY_START, WorkloadGenerator
from repro.parallel import generate as generate_module
from repro.parallel import generate_dataset
from repro.tls.handshake import HandshakeSimulator
from repro.tls.policy import BrowserPolicy

SEEDS = [0, "ci-trace"]
ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def choice_uid(self) -> str:
    self._uid_counter += 1
    return "C" + "".join(self._rng.choice(ALPHABET) for _ in range(17))


def unmemoized_validate(self, presented, *, at):
    return self._validate(presented, at)


def redrawn_server_ip(self, spec) -> str:
    rng = random.Random(f"srvip:{spec.server_id}")
    return (f"{rng.choice((93, 104, 151, 172, 185, 198, 203))}."
            f"{rng.randint(1, 254)}.{rng.randint(1, 254)}."
            f"{rng.randint(1, 254)}")


def read_bytes(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_out(seed, directory, jobs):
    """Serial ``ssl.log``/``x509.log`` plus a ``generate_dataset`` run."""
    scale = resolve_scale("small")
    serial = directory / "serial"
    dataset = build_campus_dataset(seed=seed, scale=scale)
    ssl_path, x509_path = dataset.write_zeek_logs(str(serial),
                                                  open_time=STUDY_START)
    shards = directory / "shards"
    result = generate_dataset(str(shards), seed=seed, scale=scale, jobs=jobs)
    return {"ssl": read_bytes(ssl_path), "x509": read_bytes(x509_path),
            "shards": str(shards), "jobs": result.jobs}


@pytest.fixture(scope="module", params=SEEDS, ids=str)
def runs(request, tmp_path_factory):
    seed = request.param
    patcher = pytest.MonkeyPatch()
    try:
        patcher.setattr(generate_module, "_CONTEXT_CACHE", {})
        patcher.setattr(HandshakeSimulator, "_next_uid", choice_uid)
        patcher.setattr(BrowserPolicy, "validate", unmemoized_validate)
        patcher.setattr(WorkloadGenerator, "_server_ip", redrawn_server_ip)
        # Inline (jobs=1): spawned pool workers would not see the patches.
        plain = write_out(seed, tmp_path_factory.mktemp("plain"), jobs=1)
    finally:
        patcher.undo()
    patcher = pytest.MonkeyPatch()
    try:
        patcher.setattr(generate_module, "_CONTEXT_CACHE", {})
        patcher.setattr(os, "cpu_count", lambda: 2)
        shipped = write_out(seed, tmp_path_factory.mktemp("shipped"), jobs=2)
    finally:
        patcher.undo()
    return plain, shipped


class TestHotPathByteIdentity:
    def test_serial_logs_identical(self, runs):
        plain, shipped = runs
        assert shipped["ssl"] == plain["ssl"]
        assert shipped["x509"] == plain["x509"]

    def test_pool_shards_identical_to_plain_path(self, runs):
        plain, shipped = runs
        assert shipped["jobs"] == 2
        names = sorted(os.listdir(plain["shards"]))
        assert names == [f"ssl-{s:02d}.log" for s in range(GENERATION_SHARDS)] \
            + ["x509.log"]
        assert sorted(os.listdir(shipped["shards"])) == names
        for name in names:
            assert read_bytes(os.path.join(shipped["shards"], name)) == \
                read_bytes(os.path.join(plain["shards"], name)), name

    def test_broadcast_x509_matches_plain_serial_tap(self, runs):
        plain, shipped = runs
        assert read_bytes(os.path.join(shipped["shards"], "x509.log")) == \
            plain["x509"]
