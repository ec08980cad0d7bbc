"""The repository benchmark: fresh-process CLI workloads, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each timed invocation is a fresh
interpreter that imports the package and calls
``repro.experiments.cli.main`` exactly as the console script does, so
every memo starts cold, as it does for a user.  Invocations run one at a
time, back to back (a closed loop with one client), until ``--seconds``
of invocation time has been measured; the workload seed goes only to the
CLI.  Inputs and correctness references are prepared before the loop and
are not timed.  See ``perfbench/README.md`` for the workloads, metrics
and the layer → end-to-end map.

``--trace 0`` reports the end-to-end metrics (medians over the
invocations).  ``--trace 1`` runs the same loop and then the traced
sweep: fresh processes (``layers.py``) that redo the pipeline as timed
calls into each layer's public functions, reporting the per-layer
metrics.  The last stdout line is the JSON result; a run record with the
host fingerprint and seed is written under ``.perfbench/records``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from typing import Callable, Dict, List, Optional

from common import GOLDENS, cli_table_body, data_rows_digest, sha256_bytes

HERE = os.path.dirname(os.path.abspath(__file__))
#: Timed invocations per run, at least, however long they take.
MIN_INVOCATIONS = 3
#: Extra import-only processes per run, so ``setup_s`` is a median of
#: several set-ups even when the workload allows only a few invocations.
SETUP_PROBES = 5
#: A traced segment's layer times must cover its wall clock to this share.
COVERAGE_TOLERANCE = 0.05
#: Chains the analyzer must put in their true category, for seeds that
#: have no committed golden (every committed seed sits at 0.989).
DIAGONAL_FLOOR = 0.98
#: Backstop for a hung child; a normal run ends well within 180 s.
CHILD_TIMEOUT_S = 150


def host_fingerprint() -> Dict[str, object]:
    """What a comparison must hold constant about the machine."""
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


class Failure(Exception):
    """A correctness check failed; the message says which."""


class Context:
    """One benchmark run: checkout, scratch directory, seed, settings."""

    def __init__(self, args: argparse.Namespace, root: str):
        self.root = root
        self.seed = str(args.seed)
        self.scale = args.scale
        self.jobs = min(2, os.cpu_count() or 1)
        self.work = os.path.join(root, ".perfbench",
                                 f"work-{os.getpid()}-{time.time_ns()}")
        os.makedirs(self.path("tmp"))
        # Children import the checkout's package and keep their temporary
        # files (the supervisor's heartbeat directories) in the checkout.
        self.env = dict(os.environ, TMPDIR=self.path("tmp"))
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"),
                          os.environ.get("PYTHONPATH")]))

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def spawn(self, script: str, *args: str, stdout=subprocess.PIPE
              ) -> subprocess.Popen:
        """Start ``perfbench/<script>`` in its own process group."""
        return subprocess.Popen(
            [sys.executable, os.path.join(HERE, script), *args],
            cwd=self.root, env=self.env, stdout=stdout,
            stderr=subprocess.PIPE, text=True, start_new_session=True)

    @staticmethod
    def wait(proc: subprocess.Popen) -> tuple:
        """Wait for a child's output.  On a timeout or an interrupt, kill
        its whole process group (pool workers too) before re-raising."""
        try:
            return proc.communicate(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            Context.kill(proc)
            raise

    @staticmethod
    def kill(proc: subprocess.Popen) -> None:
        """Kill a child's process group and reap the child."""
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()

    def finish_child(self, proc: subprocess.Popen) -> dict:
        """Wait for a child and parse the JSON on its last stdout line."""
        stdout, stderr = self.wait(proc)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(proc.args[1:])} exited "
                               f"{proc.returncode}:\n{stderr[-2000:]}")
        return json.loads(stdout.strip().splitlines()[-1])

    def child_json(self, script: str, *args: str) -> dict:
        return self.finish_child(self.spawn(script, *args))

    def invoke(self, cli_args: List[str], *, setup_only: bool = False
               ) -> dict:
        """One fresh-process CLI call; returns its timings and stdout."""
        result_path = self.path("invoke.json")
        stdout_path = self.path("stdout.txt")
        mode = "--setup-only" if setup_only else "--run"
        with open(stdout_path, "wb") as stdout:
            spawned = time.monotonic()
            proc = self.spawn("invoke.py", result_path, mode, "--",
                              *cli_args, stdout=stdout)
            _, stderr = self.wait(proc)
            elapsed = time.monotonic() - spawned
        with open(stdout_path, "rb") as handle:
            output = handle.read()
        sample = {"exit": proc.returncode, "elapsed_s": elapsed,
                  "stdout": output, "stderr": stderr[-2000:]}
        if os.path.exists(result_path):
            with open(result_path, encoding="utf-8") as handle:
                timing = json.load(handle)
            os.remove(result_path)
            sample.update(
                setup_s=timing["entry"] - spawned,
                wall_s=timing["done"] - timing["entry"],
                cpu_s=timing["cpu_s"], peak_rss_mb=timing["peak_rss_mb"],
                worker_peak_rss_mb=timing["worker_peak_rss_mb"])
        return sample

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# -- workloads ----------------------------------------------------------------


class Workload:
    """A CLI command line, its untimed preparation, and its output check."""

    #: The traced segments (``layers.py``) that redo this workload's work.
    segments: tuple = ()

    def prepare(self, ctx: Context) -> None:
        """Build inputs and the correctness reference; sets ``ssl_rows``."""
        raise NotImplementedError

    def args(self, ctx: Context, index: int) -> List[str]:
        raise NotImplementedError

    def check(self, ctx: Context, index: int, stdout: bytes) -> None:
        """Raise :class:`Failure` when the invocation's output is wrong."""
        raise NotImplementedError


def check_generated(out_dir: str, ssl_digest: str, ssl_rows: int,
                    x509_digest: str) -> None:
    """A ``generate`` output must equal the serial in-memory write-out."""
    with open(os.path.join(out_dir, "x509.log"), "rb") as handle:
        if sha256_bytes(handle.read()) != x509_digest:
            raise Failure("x509.log differs from the serial write-out")
    shards = sorted(glob.glob(os.path.join(out_dir, "ssl-*.log")))
    digest, rows = data_rows_digest(shards)
    if (digest, rows) != (ssl_digest, ssl_rows):
        raise Failure(f"ssl shard rows ({rows}) differ from the serial "
                      f"ssl.log rows ({ssl_rows})")


class Generate(Workload):
    """``repro-experiments generate``: simulate and write the shards."""

    segments = ("generate-layers", "generate-engine")

    def prepare(self, ctx: Context) -> None:
        self.ref = ctx.child_json("reference.py", "generate", "--seed",
                                  ctx.seed, "--scale", ctx.scale, "--out",
                                  ctx.path("reference"))
        shutil.rmtree(ctx.path("reference"))
        self.ssl_rows = self.ref["ssl_rows"]

    def args(self, ctx: Context, index: int) -> List[str]:
        return ["generate", "--out", ctx.path(f"out-{index}"), "--scale",
                ctx.scale, "--seed", ctx.seed, "--jobs", str(ctx.jobs)]

    def check(self, ctx: Context, index: int, stdout: bytes) -> None:
        out_dir = ctx.path(f"out-{index}")
        try:
            check_generated(out_dir, self.ref["ssl_rows_sha256"],
                            self.ssl_rows, self.ref["x509_sha256"])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


class AnalyzeLogs(Workload):
    """``certchain-analyze --shard-dir``: ingest and analyze the shards."""

    segments = ("ingest-engine", "ingest-layers")

    def prepare(self, ctx: Context) -> None:
        # The input is a real `generate` output; the reference comes from
        # the serial in-memory path.  Neither is timed.
        reference = ctx.spawn("reference.py", "analyze", "--seed", ctx.seed,
                              "--scale", ctx.scale)
        try:
            made = ctx.invoke(["generate", "--out", ctx.path("input"),
                               "--scale", ctx.scale, "--seed", ctx.seed,
                               "--jobs", str(ctx.jobs)])
        except BaseException:
            ctx.kill(reference)
            raise
        self.ref = ctx.finish_child(reference)
        if made["exit"] != 0:
            raise RuntimeError(f"input generation failed: {made['stderr']}")
        self.ssl_rows = self.ref["ssl_rows"]

    def args(self, ctx: Context, index: int) -> List[str]:
        return ["--shard-dir", ctx.path("input"), "--jobs", str(ctx.jobs)]

    def check(self, ctx: Context, index: int, stdout: bytes) -> None:
        text = stdout.decode("utf-8")
        if cli_table_body(text) != self.ref["table_body"]:
            raise Failure("category table differs from the in-memory path")
        for line in (f"distinct certificates: "
                     f"{self.ref['distinct_certificates']:,}",
                     f"hybrid chains: {self.ref['hybrid_chains']:,}"):
            if line not in text.splitlines():
                raise Failure(f"expected {line!r} in the output")


class PaperSuite(Workload):
    """``certchain-analyze -e all``: simulate in memory, run every
    experiment.  Kept out of ``BENCHMARK.json``: its golden check fails
    while ``figure7``/``figure8`` print in hash order (see README)."""

    segments = ("paper",)

    def prepare(self, ctx: Context) -> None:
        with open(GOLDENS, encoding="utf-8") as handle:
            golden = json.load(handle).get(ctx.scale, {}).get(ctx.seed)
        args = ["paper", "--seed", ctx.seed, "--scale", ctx.scale]
        ref = ctx.child_json("reference.py",
                             *(args if golden else args + ["--render"]))
        self.digest = (golden or ref)["sha256"]
        self.ssl_rows = ref["ssl_rows"]
        check_diagonal(ref, golden)

    def args(self, ctx: Context, index: int) -> List[str]:
        return ["--scale", ctx.scale, "--seed", ctx.seed, "-e", "all"]

    def check(self, ctx: Context, index: int, stdout: bytes) -> None:
        if sha256_bytes(stdout) != self.digest:
            raise Failure("-e all output differs from the golden")


def check_diagonal(measured: dict, golden: Optional[dict]) -> None:
    """Analyzer vs generator truth must keep its confusion diagonal."""
    hits, chains = measured["diagonal"], measured["chains"]
    if golden is not None:
        if (hits, chains) != (golden["diagonal"], golden["chains"]):
            raise Failure(f"truth diagonal {hits}/{chains}, golden "
                          f"{golden['diagonal']}/{golden['chains']}")
    elif hits < DIAGONAL_FLOOR * chains:
        raise Failure(f"truth diagonal {hits}/{chains} below "
                      f"{DIAGONAL_FLOOR:.0%}")


WORKLOADS: Dict[str, Callable[[], Workload]] = {
    "generate": Generate, "analyze-logs": AnalyzeLogs,
    "paper-suite": PaperSuite}


# -- the timed loop -------------------------------------------------------------


def timed_loop(ctx: Context, workload: Workload, seconds: float,
               failures: List[str]) -> tuple[list, list, int]:
    """Closed loop: invoke, check, repeat until ``seconds`` are measured.

    Returns the samples, the set-up times and how many invocations failed
    (exited non-zero or failed the check); failures are described in
    ``failures``.
    """
    ctx.invoke([], setup_only=True)  # untimed: bytecode caches exist
    setups = [ctx.invoke([], setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    samples: list = []
    failed = 0
    measured = 0.0
    while measured < seconds or len(samples) < MIN_INVOCATIONS:
        index = len(samples)
        sample = ctx.invoke(workload.args(ctx, index))
        measured += sample["elapsed_s"]
        try:
            if sample["exit"] != 0:
                raise Failure(f"exit {sample['exit']}: {sample['stderr']}")
            workload.check(ctx, index, sample["stdout"])
        except Failure as exc:
            failed += 1
            failures.append(f"invocation {index}: {exc}")
        del sample["stdout"], sample["stderr"]
        samples.append(sample)
        if "setup_s" in sample:
            setups.append(sample["setup_s"])
    return samples, setups, failed


def end_to_end(workload: Workload, samples: list, setups: list) -> dict:
    timed = [s for s in samples if "wall_s" in s]

    def median(key: str) -> float:
        return statistics.median(s[key] for s in timed)

    return {
        "wall_s": (median("wall_s"), "s"),
        "ssl_rows_per_s": (statistics.median(
            workload.ssl_rows / s["wall_s"] for s in timed), "1/s"),
        "cpu_s": (median("cpu_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
        "worker_peak_rss_mb": (median("worker_peak_rss_mb"), "MB"),
    }


# -- the traced sweep -----------------------------------------------------------

#: Every segment, in pipeline order; ingest reads what generate-engine wrote.
SEGMENTS = ("generate-layers", "generate-engine", "ingest-engine",
            "ingest-layers", "paper")


def traced_sweep(ctx: Context, workload: Workload, samples: list,
                 failures: list) -> dict:
    """Run every segment; per-layer metrics plus the accounting check."""
    results = {}
    for segment in SEGMENTS:
        results[segment] = ctx.child_json(
            "layers.py", segment, "--seed", ctx.seed, "--scale", ctx.scale,
            "--jobs", str(ctx.jobs), "--work", ctx.work)
    metrics: Dict[str, tuple] = {}
    for segment, result in results.items():
        for name, (value, unit) in result["metrics"].items():
            metrics[name] = (value, unit)
        failures.extend(f"{segment}: {message}"
                        for message in result["failures"])
        coverage = sum(result["steps"].values()) / result["wall_s"]
        if coverage < 1.0 - COVERAGE_TOLERANCE:
            failures.append(f"{segment}: layers cover {coverage:.3f} of "
                            f"the wall clock (tolerance "
                            f"{COVERAGE_TOLERANCE:.0%})")
    # Cross-segment checks: the sharded output equals the serial one, and
    # the layer-by-layer ingest rebuilt the engine's chain map.
    serial = results["generate-layers"]["serial"]
    try:
        check_generated(ctx.path("trace-gen"), serial["ssl_rows_sha256"],
                        serial["ssl_rows"], serial["x509_sha256"])
    except Failure as exc:
        failures.append(f"generate-engine: {exc}")
    with open(GOLDENS, encoding="utf-8") as handle:
        golden = json.load(handle).get(ctx.scale, {}).get(ctx.seed)
    try:
        check_diagonal(results["paper"], golden)
    except Failure as exc:
        failures.append(f"paper: {exc}")
    if (results["ingest-layers"]["chains"]
            != results["ingest-engine"]["chains"]):
        failures.append("ingest-layers: chain map differs from the engine's")
    own = [results[segment] for segment in workload.segments]
    traced_wall = sum(r["wall_s"] for r in own)
    timed = [s for s in samples if "wall_s" in s]
    metrics["trace.coverage"] = (
        sum(sum(r["steps"].values()) for r in own) / traced_wall, "ratio")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(s["wall_s"] for s in timed), "s")
    return metrics


# -- entry point ------------------------------------------------------------------


def write_record(root: str, record: dict) -> str:
    directory = os.path.join(root, ".perfbench", "records")
    os.makedirs(directory, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = os.path.join(directory, f"{record['workload']}-seed"
                                   f"{record['seed']}-{stamp}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return path


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", default="0")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="default",
                        choices=("small", "default"))
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "repro", "experiments",
                                       "cli.py")):
        print("run.py: run from the repository root (src/repro missing)",
              file=sys.stderr)
        return 2
    # A terminated run still stops its children and removes its scratch:
    # SystemExit unwinds through Context.wait (which kills the child's
    # process group) and the finally clause below.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]()
    ctx = Context(args, root)
    failures: List[str] = []
    try:
        try:
            workload.prepare(ctx)
        except Failure as exc:
            failures.append(f"prepare: {exc}")
        samples, setups, failed = timed_loop(ctx, workload, args.seconds,
                                             failures)
        if not any("wall_s" in s for s in samples):
            print("run.py: no invocation completed", file=sys.stderr)
            return 1
        if args.trace:
            metrics = traced_sweep(ctx, workload, samples, failures)
            metrics["error_rate"] = (failed / len(samples), "ratio")
        else:
            metrics = end_to_end(workload, samples, setups)
    finally:
        ctx.close()
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, seed=ctx.seed,
                  scale=args.scale, seconds=args.seconds, trace=args.trace,
                  jobs=ctx.jobs, host=host_fingerprint(), failures=failures,
                  samples=samples, setups=setups)
    print(f"record: {write_record(root, record)}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
