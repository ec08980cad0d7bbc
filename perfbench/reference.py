"""Correctness references, built through the serial in-memory path.

Run as a child of ``run.py`` (``python3 perfbench/reference.py KIND
--seed S --scale X``); prints one JSON object on its last stdout line.

* ``generate`` — write ``CampusDataset.write_zeek_logs(open_time=
  STUDY_START)`` into ``--out`` and report the digest of its
  ``x509.log`` bytes and of its ``ssl.log`` data rows: the sharded
  ``generate`` output must reproduce both.
* ``analyze`` — ``join_logs`` → ``ChainStructureAnalyzer(
  build_public_pki().registry).analyze_connections`` over the in-memory
  records: the category table body, distinct-certificate count and
  hybrid count that ``certchain-analyze --shard-dir`` must print.
* ``paper`` — the analyzer-vs-ground-truth confusion diagonal, and
  (``--render``) the digest of the ``-e all`` output for seeds that
  have no committed golden.
* ``capture`` — record goldens for ``--seeds`` into
  ``goldens/paper-suite.json`` (run once, on the commit whose output
  the goldens pin).
"""

from __future__ import annotations

import argparse
import json
import os

from common import (GOLDENS, category_table_body, data_rows_digest,
                    diagonal, emit, sha256_bytes, truth_confusion)


def _dataset(seed: str, scale: str):
    from repro.campus.dataset import cached_campus_dataset

    # The CLI passes --seed through as a string; so must the reference.
    return cached_campus_dataset(seed=seed, scale=scale)


def generate_reference(seed: str, scale: str, out: str) -> dict:
    from repro.campus.workload import STUDY_START

    dataset = _dataset(seed, scale)
    ssl_path, x509_path = dataset.write_zeek_logs(out, open_time=STUDY_START)
    ssl_digest, ssl_rows = data_rows_digest([ssl_path])
    with open(x509_path, "rb") as handle:
        x509_digest = sha256_bytes(handle.read())
    return {"ssl_rows": ssl_rows, "ssl_rows_sha256": ssl_digest,
            "x509_sha256": x509_digest,
            "x509_rows": dataset.certificate_count}


def analyze_reference(seed: str, scale: str) -> dict:
    from repro.core.categorization import ChainCategory
    from repro.core.pipeline import ChainStructureAnalyzer
    from repro.truststores import build_public_pki
    from repro.zeek.tap import join_logs

    dataset = _dataset(seed, scale)
    joined = join_logs(dataset.ssl_records, dataset.x509_records)
    analyzer = ChainStructureAnalyzer(build_public_pki().registry)
    result = analyzer.analyze_connections(joined)
    return {
        "ssl_rows": dataset.connection_count,
        "table_body": category_table_body(result.categorized),
        "distinct_certificates": len({r.fingerprint
                                      for r in dataset.x509_records}),
        "hybrid_chains": result.categorized.chain_count(ChainCategory.HYBRID),
    }


def paper_suite_text(dataset) -> str:
    """What ``certchain-analyze -e all`` prints for ``dataset``."""
    from repro.experiments.base import registry, run_experiment

    # Importing the CLI registers every experiment, as it does for users.
    import repro.experiments.cli  # noqa: F401

    return "".join(run_experiment(exp_id, dataset).rendered + "\n\n"
                   for exp_id in sorted(registry()))


def paper_reference(seed: str, scale: str, render: bool) -> dict:
    dataset = _dataset(seed, scale)
    hits, chains = diagonal(truth_confusion(dataset, dataset.analyze()))
    out = {"ssl_rows": dataset.connection_count, "diagonal": hits,
           "chains": chains}
    if render:
        out["sha256"] = sha256_bytes(paper_suite_text(dataset).encode())
    return out


def capture(scale: str, seeds: list[str]) -> dict:
    goldens = {}
    if os.path.exists(GOLDENS):
        with open(GOLDENS, encoding="utf-8") as handle:
            goldens = json.load(handle)
    table = goldens.setdefault(scale, {})
    for seed in seeds:
        table[seed] = paper_reference(seed, scale, render=True)
        with open(GOLDENS, "w", encoding="utf-8") as handle:
            json.dump(goldens, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return {"captured": len(seeds), "scale": scale}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind",
                        choices=("generate", "analyze", "paper", "capture"))
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seeds", default="0",
                        help="capture: comma list or FIRST-LAST range")
    parser.add_argument("--scale", default="default")
    parser.add_argument("--out", help="generate: directory for the logs")
    parser.add_argument("--render", action="store_true",
                        help="paper: also digest the rendered -e all output")
    args = parser.parse_args()
    if args.kind == "generate":
        emit(generate_reference(args.seed, args.scale, args.out))
    elif args.kind == "analyze":
        emit(analyze_reference(args.seed, args.scale))
    elif args.kind == "paper":
        emit(paper_reference(args.seed, args.scale, args.render))
    else:
        if "-" in args.seeds:
            first, last = args.seeds.split("-")
            seeds = [str(s) for s in range(int(first), int(last) + 1)]
        else:
            seeds = args.seeds.split(",")
        emit(capture(args.scale, seeds))


if __name__ == "__main__":
    main()
