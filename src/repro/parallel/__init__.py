"""Parallel sharded generation and ingestion.

Two engines share the same map-reduce discipline — partials merged in
a deterministic index order, workers recording no metrics, the driver
emitting canonical values — so outputs are byte-identical at any
``--jobs``:

* **generation** (:mod:`repro.parallel.generate`): map fixed
  study-window intervals over worker processes that simulate their
  interval's handshakes and write ``ssl-NN.log``/``x509-NN.log`` shard
  files directly — the in-order concatenation reproduces the serial
  dataset write-out byte for byte;
* **ingestion** (:mod:`repro.parallel.engine`): map shard files over
  worker processes, reduce with ``ChainUsage.merge`` into the exact
  chain map a serial pass yields.

Chain analysis runs serially over the merged chain map
(:class:`repro.core.pipeline.ChainStructureAnalyzer`): it is per-chain
work far cheaper than pickling the chains out to a pool.

Both (plus the scanner's ``scan_many``) dispatch through the
**supervised executor** (:mod:`repro.parallel.supervisor`): worker
crashes and hangs are absorbed by bounded retry on a rebuilt pool,
poison tasks are quarantined and recovered in-driver, and an attached
:class:`~repro.resilience.journal.RunJournal` makes a killed run
resumable at task granularity — all without touching the byte-identical
merge guarantee.  See ``docs/RESILIENCE.md`` ("Supervised execution").

See ``docs/PERFORMANCE.md`` for the models and the determinism
guarantees, and ``benchmarks/test_generate_scaling.py`` /
``benchmarks/test_parallel_scaling.py`` for the tracked speedup numbers.
"""

from .engine import IngestResult, ingest_logs, ingest_shards
from .generate import (
    GenerateResult,
    GenerateShardResult,
    GenerateTask,
    generate_dataset,
    process_generate_shard,
)
from .shards import ShardSpec, discover_shards, split_zeek_log
from .supervisor import (
    SupervisedRun,
    SupervisorConfig,
    SupervisorIncident,
    run_supervised,
)
from .worker import (
    ColumnarShardAggregate,
    ShardAggregate,
    ShardTask,
    process_shard,
    process_shard_columnar,
)

__all__ = [
    "ColumnarShardAggregate",
    "GenerateResult",
    "GenerateShardResult",
    "GenerateTask",
    "IngestResult",
    "ShardAggregate",
    "ShardSpec",
    "ShardTask",
    "SupervisedRun",
    "SupervisorConfig",
    "SupervisorIncident",
    "run_supervised",
    "discover_shards",
    "generate_dataset",
    "ingest_logs",
    "ingest_shards",
    "process_generate_shard",
    "process_shard",
    "process_shard_columnar",
    "split_zeek_log",
]
