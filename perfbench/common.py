"""Helpers shared by ``run.py`` and the child processes it starts.

Every child (``invoke.py``, ``reference.py``, ``layers.py``) is started
as ``python3 perfbench/<name>.py`` from the repository root, with
``src`` on ``PYTHONPATH`` so the package is imported from the source
tree exactly as it would be from an install.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens", "paper-suite.json")

#: Analyzer category (``ChainCategory`` value) for each generator truth
#: label (``ChainSpec.category_truth``).
TRUTH_TO_CATEGORY = {
    "public": "public-db-only",
    "nonpub": "non-public-db-only",
    "hybrid": "hybrid",
    "interception": "tls-interception",
}


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_rows_digest(paths: Iterable[str]) -> tuple[str, int]:
    """SHA-256 and count of the non-header lines of ``paths``, in order."""
    digest = hashlib.sha256()
    rows = 0
    for path in paths:
        with open(path, "rb") as handle:
            for line in handle:
                if not line.startswith(b"#"):
                    digest.update(line)
                    rows += 1
    return digest.hexdigest(), rows


def category_table_body(categorized) -> List[str]:
    """The CLI's category table without its corpus-specific title line."""
    from repro.core.report import render_table

    rows = [[row["category"], row["chains"], row["connections"],
             row["client_ips"]] for row in categorized.summary_rows()]
    table = render_table(["category", "chains", "connections", "client IPs"],
                         rows)
    return [line.rstrip() for line in table.splitlines()]


def cli_table_body(stdout: str) -> List[str]:
    """Extract :func:`category_table_body` from ``certchain-analyze`` output
    (empty when the output has no category table)."""
    body: List[str] = []
    for line in stdout.splitlines():
        if body and not line:
            break
        if body or line.startswith("category "):
            body.append(line.rstrip())
    return body


def truth_confusion(dataset, analysis) -> Dict[str, Dict[str, int]]:
    """Generator truth label -> analyzer category -> chain count."""
    truth = dataset.truth_by_chain_key()
    matrix: Dict[str, Dict[str, int]] = {}
    for category, chains in analysis.categorized.by_category.items():
        for chain in chains:
            label = truth[chain.key].category_truth
            row = matrix.setdefault(label, {})
            row[category.value] = row.get(category.value, 0) + 1
    return matrix


def diagonal(matrix: Dict[str, Dict[str, int]]) -> tuple[int, int]:
    """(chains on the diagonal, all chains) of a :func:`truth_confusion`."""
    hits = sum(row.get(TRUTH_TO_CATEGORY[label], 0)
               for label, row in matrix.items())
    return hits, sum(sum(row.values()) for row in matrix.values())


def emit(payload: dict) -> None:
    """A child's result: one JSON object on the last line of stdout."""
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    sys.stdout.flush()
