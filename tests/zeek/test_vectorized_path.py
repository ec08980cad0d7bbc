"""numpy is a declared dependency: the vectorised reader must be live.

Without numpy the columnar reader silently takes its per-line fallback
— same rows, several times slower — and every columnar benchmark would
measure the wrong path.  These tests fail instead.
"""

from __future__ import annotations

from repro.campus.dataset import resolve_scale
from repro.parallel.generate import GenerateTask, process_generate_shard
from repro.parallel.worker import _SSL_INTERN, _SSL_PROJECTION
from repro.zeek import columnar


def test_numpy_is_importable():
    assert columnar._np is not None, (
        "numpy is missing: the columnar reader falls back to per-line "
        "decoding (declare it in pyproject.toml dependencies)")


def test_clean_default_scale_shard_is_read_vectorised(tmp_path,
                                                      monkeypatch):
    task = GenerateTask(shard=0, seed=0, scale=resolve_scale("default"),
                        ssl_path=str(tmp_path / "ssl-00.log"),
                        x509_path=str(tmp_path / ".x509-00.part"))
    process_generate_shard(task)
    scans = []
    original = columnar._ColumnarBuilder.scan_vectorized

    def spy(builder, buf):
        scans.append(builder)
        return original(builder, buf)

    monkeypatch.setattr(columnar._ColumnarBuilder, "scan_vectorized", spy)
    table = columnar.read_zeek_log_columnar(
        task.ssl_path, intern=_SSL_INTERN, project=_SSL_PROJECTION)
    assert len(scans) == 1
    assert table.rows > 1000
    assert table.stats.vector_rows == table.rows
    assert table.stats.line_rows == 0
