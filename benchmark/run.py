"""capforge benchmark: three workloads run as fresh ``capforge`` CLI processes.

    python3 benchmark/run.py --workload quickstart --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout; capforge is imported from ``src/``.
With ``--trace 0`` a run builds the workload's inputs (timed as
``setup_s``), runs one untimed warm-up pass where the inputs were built in
set-up, then repeats the workload's timed commands while another pass is
expected to end within ``--seconds`` (at least once) and reports the median
of each end-to-end metric over those passes.  With ``--trace 1`` it runs the
timed commands once untraced and once through ``traced_cli.py`` (set-up
commands are traced too) and reports the per-layer metrics.  Every pass
checks the outputs against invariants and against the values recorded at the
commit that defined the benchmark (``references.json``).  The last line of
standard output is one JSON object: ``{"correct", "attempted", "failed",
"metrics"}``.  An operation is one CLI invocation or one output check; a
nonzero exit or a failed check is a failed operation.

Inputs come from ``--seed`` only: the generator seed of the workload's pool
is ``seed % 10``, one of ten pools whose outputs are recorded, so every run
is checked in full.  ``--record`` rewrites those references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
REFERENCES = BENCH_DIR / "references.json"
TRACED_CLI = BENCH_DIR / "traced_cli.py"

REFERENCE_SEEDS = 10
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIB = float(1 << 20)

# Columns of a report row at the commit that defined the benchmark.  Rows are
# compared value by value on these columns only, so a later column (a pool
# fingerprint, say) does not count as a mismatch.
REPORT_COLUMNS = [
    "strategy", "entries", "tau_used", "mean_cosine", "mean_clip_s",
    "mean_word_count", "mean_grounding_ratio", "unique_trigrams",
    "unique_nouns", "sample_size", "sample_seed",
]
RAW_ALIGNMENT_MEAN = 0.208  # generator default for raw captions
RAW_ALL_TOLERANCE = 0.005

# ---------------------------------------------------------------------------
# Workloads.  Each exists to make a different layer dominate:
#
# quickstart     README steps 1-5 verbatim at --workers 2 (nproc here): gen,
#                validate, score raw, score blip2, mix, metrics, report.  The
#                path every user runs; writes (gen, score sidecars) beside
#                reads; all six pool-opening commands re-verify every checksum
#                (about 12 s of 31 s at 100k); no k-means.  The only workload
#                with more than one worker.
# strategy_grid  One report over all 11 strategies at p=30, --workers 1, on a
#                pool with two captioners and no score sidecars, so scoring
#                computes its tables in process.  One open_pool call; most time
#                goes to record parsing, apply_strategy, curated-set sorting,
#                sampling and caption metrics.  syn_best_variant_all exercises
#                the multi-source per-record path.
# in1k           One report with two in1k_intersect strategies sharing
#                cluster_params, so k-means runs once and dominates the run.
#                max_iters is fixed at 20 with tol 0, so every seed runs the
#                same number of Lloyd iterations and the spread across seeds
#                stays small.  Where a k-means change must show, and where
#                every other change should predict no change.
#
# Pool sizes keep a strategy_grid or in1k pass near 4 s, so a run takes the
# median of several passes; timings on a shared 2-vCPU host jitter by 10-20%
# from one pass to the next.
#
# The per-layer metric table below says which end-to-end metric each layer
# metric should move, and on which workloads its span must be entered.
# ---------------------------------------------------------------------------

QS, GRID, IN1K = "quickstart", "strategy_grid", "in1k"
ALL = (QS, GRID, IN1K)
SCALES = {
    "full": {QS: 100_000, GRID: 20_000, IN1K: 10_000},
    "tiny": {QS: 2_000, GRID: 2_000, IN1K: 2_000},
}
QS_WORKERS = 2
GRID_SYN_SOURCES = [
    {"source_name": "blip2", "temperature": 0.75, "diversity_factor": 0.7},
    {"source_name": "coca", "temperature": 1.0, "diversity_factor": 0.5},
]
README_STRATEGIES = [
    {"name": "raw_all"},
    {"name": "syn_all", "syn_source": "blip2"},
    {"name": "raw_top", "p": 30},
    {"name": "raw_top_plus_syn_rest_filtered", "p": 30, "syn_source": "blip2"},
]
GRID_STRATEGIES = [
    {"name": "raw_all"},
    {"name": "syn_all", "syn_source": "blip2"},
    {"name": "syn_best_variant_all"},
    {"name": "raw_top", "p": 30},
    {"name": "syn_top", "p": 30, "syn_source": "blip2"},
    {"name": "syn_on_raw_top", "p": 30, "syn_source": "blip2"},
    {"name": "raw_top_plus_syn_rest", "p": 30, "syn_source": "blip2"},
    {"name": "raw_top_plus_syn_rest_filtered", "p": 30, "syn_source": "blip2"},
    {"name": "syn_top_plus_raw_rest_filtered", "p": 30, "syn_source": "blip2"},
    {"name": "concat_top_plus_syn_rest_filtered", "p": 30, "syn_source": "blip2"},
    {"name": "union_top_raw_top_syn", "p": 30, "syn_source": "blip2"},
]
IN1K_CLUSTER = {"k": 64, "seed": 0, "max_iters": 20, "tol": 0.0}
IN1K_REFS = 100
IN1K_STRATEGIES = [
    {"name": "raw_top", "p": 30, "in1k_intersect": True,
     "cluster_params": IN1K_CLUSTER},
    {"name": "raw_top_plus_syn_rest_filtered", "p": 30, "syn_source": "blip2",
     "in1k_intersect": True, "cluster_params": IN1K_CLUSTER},
]

END_TO_END = [  # name, unit
    ("total_s", "s"),       # wall time of the timed commands
    ("cpu_s", "s"),         # user + system CPU of those processes
    ("peak_rss_mb", "MiB"), # largest peak RSS of one timed process
    ("setup_s", "s"),       # building the inputs before timing starts
    ("disk_mb", "MiB"),     # bytes the workload leaves on disk
]

# Per-layer metrics: (name, unit, workloads on which the traced run must
# enter its span).  README.md says which end-to-end metric each should move
# on which workload.  Time metrics are self time: a span's duration minus the
# part of it that child spans cover.  Spans of set-up commands count too,
# which is how poolgen shows up on strategy_grid and in1k.
LAYER_METRICS = [
    ("cli.gen.s", "s", ALL),
    ("cli.validate.s", "s", (QS,)),
    ("cli.score.s", "s", (QS,)),
    ("cli.mix.s", "s", (QS,)),
    ("cli.metrics.s", "s", (QS,)),
    ("cli.report.s", "s", ALL),
    ("fileio.crc32c.s", "s", ALL),
    ("fileio.crc32c.mb", "MiB", ALL),
    ("fileio.crc32c.mb_per_s", "MiB/s", ALL),
    ("fileio.read.s", "s", (QS, GRID)),
    ("fileio.read.mb", "MiB", (QS, GRID)),
    ("pool.open_pool.s", "s", ALL),
    ("pool.open_pool.calls", "count", ALL),
    ("pool.verify_to_read_ratio", "ratio", (QS, GRID)),
    ("pool.records.s", "s", (QS, GRID)),
    ("pool.records.rows", "count", (QS, GRID)),
    ("pool.records.rss_mb", "MiB", (QS, GRID)),
    ("pool.validate_pool.s", "s", (QS,)),
    ("pool.write_shard.s", "s", ALL),
    ("pool.write_shard.mb", "MiB", ALL),
    ("poolgen.generate_pool.s", "s", ALL),
    ("pool.embeddings.s", "s", (IN1K,)),
    ("scoring.score_pool.s", "s", (QS, GRID)),
    ("scoring.score_pool.rows", "count", (QS, GRID)),
    ("curation.apply_strategy.s", "s", ALL),
    ("curation.apply_strategy.entries", "count", ALL),
    ("curation.top_fraction.s", "s", ALL),
    ("curation.CuratedSet.s", "s", ALL),
    ("curation.kmeans.s", "s", (IN1K,)),
    ("curation.kmeans.iters", "count", (IN1K,)),
    ("curation.kmeans.iter_s", "s", (IN1K,)),
    ("curation.in1k_cluster_mask.s", "s", (IN1K,)),
    ("curation.write_curated.s", "s", (QS,)),
    ("curation.read_curated.s", "s", (QS,)),
    ("textmetrics.sample_subset.s", "s", ALL),
    ("report.build_quality_report.s", "s", ALL),
    ("report.build_quality_report.captions", "count", ALL),
    ("report.write_report_files.s", "s", ALL),
    ("trace.overhead_s", "s", ()),
]


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    status: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("CAPFORGE_WORKERS", None)
    return env


def run_proc(argv: list[str], cwd: Path, deadline: float) -> Proc:
    """Run one process to completion; its own rusage comes from wait4."""
    out_path = cwd / f".proc-{os.getpid()}.out"
    err_path = cwd / f".proc-{os.getpid()}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text(encoding="utf-8", errors="replace")
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    out_path.unlink()
    err_path.unlink()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, stdout, stderr)


# ---------------------------------------------------------------------------
# one run


@dataclass
class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


@dataclass
class Pass:
    procs: list[Proc] = field(default_factory=list)
    disk_mb: float = 0.0

    @property
    def total_s(self) -> float:
        return sum(p.wall_s for p in self.procs)

    @property
    def cpu_s(self) -> float:
        return sum(p.cpu_s for p in self.procs)

    @property
    def peak_rss_mb(self) -> float:
        return max(p.peak_rss_mb for p in self.procs)


class Run:
    def __init__(self, workload: str, seed: int, scale: str, ledger: Ledger,
                 references: dict, record: bool):
        self.workload = workload
        self.pool_seed = seed % REFERENCE_SEEDS
        self.size = SCALES[scale][workload]
        self.key = f"{workload}/{self.size}/{self.pool_seed}"
        self.ledger = ledger
        self.reference = references.get(self.key)
        if self.reference is None and not record:
            raise SetupError(f"no recorded reference for {self.key}")
        self.recorded: dict | None = {} if record else None  # filled, not checked
        self.deadline = time.monotonic() + RUN_LIMIT_S
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
        self.spans: list[Path] = []
        self._pass_no = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it
            pass

    def command(self, args: list[str], cwd: Path, traced: bool, into: Pass | None) -> Proc:
        argv = [sys.executable, "-m", "capforge.cli", *args]
        if traced:
            spans = self.work / f"spans-{len(self.spans)}.json"
            self.spans.append(spans)
            argv = [sys.executable, str(TRACED_CLI), str(spans), *args]
        proc = run_proc(argv, cwd, self.deadline)
        if into is not None:
            into.procs.append(proc)
        what = f"capforge {' '.join(args)} exited {proc.status}"
        if not self.ledger.check(proc.status == 0, what):
            sys.stderr.write(proc.stderr[-2000:])
        return proc

    # set-up ---------------------------------------------------------------

    def setup(self, traced: bool) -> float:
        """Build the workload's inputs; returns the median seconds it took.

        Untraced runs build them SETUP_REPEATS times, each from scratch, and
        keep the last; traced runs build them once, through the tracer.
        """
        times = []
        for _ in range(1 if traced else SETUP_REPEATS):
            shutil.rmtree(self.work / "pool", ignore_errors=True)
            t0 = time.perf_counter()
            self._build_inputs(traced)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def _build_inputs(self, traced: bool) -> None:
        probe = run_proc([sys.executable, "-c", "import capforge.cli"], self.work,
                         self.deadline)
        if probe.status != 0:
            raise SetupError(f"cannot import capforge from {SRC}:\n{probe.stderr}")
        gen = {"num_records": self.size, "seed": self.pool_seed}
        strategies = {QS: README_STRATEGIES, GRID: GRID_STRATEGIES, IN1K: IN1K_STRATEGIES}
        if self.workload == GRID:
            gen["syn_sources"] = GRID_SYN_SOURCES
        _write_json(self.work / "gen.json", gen)
        _write_json(self.work / "strategies.json", strategies[self.workload])
        if self.workload == QS:
            return
        self.command(["gen", "--config", "gen.json", "--out", "pool/", "--workers", "1"],
                     self.work, traced, None)
        if self.workload == IN1K:
            self._write_refs()

    def _write_refs(self) -> None:
        code = (
            "import sys, numpy as np\n"
            "from capforge.fileio import write_embeddings\n"
            "from capforge.poolgen import embed_concept\n"
            "n, seed = int(sys.argv[1]), int(sys.argv[2])\n"
            "rows = [embed_concept([c], 64, seed) for c in range(n)]\n"
            "write_embeddings('refs.emb', np.stack(rows).astype(np.float32))\n"
        )
        proc = run_proc([sys.executable, "-c", code, str(IN1K_REFS), str(self.pool_seed)],
                        self.work, self.deadline)
        self.ledger.check(proc.status == 0, f"writing in1k references: {proc.stderr[-500:]}")

    # timed commands -------------------------------------------------------

    def timed_pass(self, traced: bool) -> Pass:
        self._pass_no += 1
        result = Pass()
        if self.workload == QS:
            cwd = self.work / f"pass-{self._pass_no}"
            cwd.mkdir()
            for name in ("gen.json", "strategies.json"):
                shutil.copy(self.work / name, cwd / name)
            w = ["--workers", str(QS_WORKERS)]
            steps = [
                ["gen", "--config", "gen.json", "--out", "pool/", *w],
                ["validate", "pool/", *w],
                ["score", "--pool", "pool/", "--source", "raw", *w],
                ["score", "--pool", "pool/", "--source", "blip2", *w],
                ["mix", "--strategy", "raw_top_plus_syn_rest_filtered", "--p", "30",
                 "--syn-source", "blip2", "--pool", "pool/", "--out", "curated.jsonl", *w],
                ["metrics", "--pool", "pool/", "--curated", "curated.jsonl",
                 "--out", "metrics.json", *w],
                ["report", "--pool", "pool/", "--strategies", "strategies.json",
                 "--out-dir", "report/", *w],
            ]
            procs = [self.command(args, cwd, traced, result) for args in steps]
            self.check_quickstart(cwd, procs[1])
            result.disk_mb = _disk_bytes(cwd) / MIB
            shutil.rmtree(cwd)
        else:
            out = f"report-{self._pass_no}"
            args = ["report", "--pool", "pool/", "--strategies", "strategies.json",
                    "--out-dir", out, "--workers", "1"]
            if self.workload == IN1K:
                args += ["--in1k-refs", "refs.emb"]
            self.command(args, self.work, traced, result)
            self.check_report(self.work / out, len(GRID_STRATEGIES if self.workload == GRID
                                                   else IN1K_STRATEGIES))
            result.disk_mb = _disk_bytes(self.work) / MIB
            shutil.rmtree(self.work / out)
        return result

    # correctness ----------------------------------------------------------

    def check_quickstart(self, cwd: Path, validate: Proc) -> None:
        check = self.ledger.check
        check(validate.stdout.startswith("ok"), f"validate printed {validate.stdout!r}")
        curated = _read_curated(cwd / "curated.jsonl")
        digest = None if curated is None else {
            "entries": len(curated),
            "sha256": hashlib.sha256(json.dumps(curated).encode()).hexdigest(),
        }
        self._compare("curated", digest, "curated (id, cap) list")
        self._compare_row("metrics", _read_json(cwd / "metrics.json"), "metrics.json")
        self.check_report(cwd / "report", len(README_STRATEGIES))

    def check_report(self, out_dir: Path, expected_rows: int) -> None:
        check = self.ledger.check
        rows = _read_json(out_dir / "report.json")
        if not check(isinstance(rows, list) and len(rows) == expected_rows,
                     f"{out_dir.name}/report.json does not hold {expected_rows} rows"):
            rows = []
        by_name = {r.get("strategy"): r for r in rows if isinstance(r, dict)}
        if self.workload != IN1K:  # in1k rows are intersections: no closed form
            raw_top = by_name.get("raw_top", {})
            check(raw_top.get("entries") == 30 * self.size // 100,
                  f"raw_top entries {raw_top.get('entries')} != floor(30*{self.size}/100)")
            mean = by_name.get("raw_all", {}).get("mean_cosine")
            check(isinstance(mean, float)
                  and abs(mean - RAW_ALIGNMENT_MEAN) <= RAW_ALL_TOLERANCE,
                  f"raw_all mean_cosine {mean} not within {RAW_ALL_TOLERANCE} "
                  f"of {RAW_ALIGNMENT_MEAN}")
        for i in range(expected_rows):
            row = rows[i] if i < len(rows) else None
            self._compare_row(f"report.{i}", row, f"report row {i}")

    def _compare(self, key: str, got, what: str) -> None:
        if self.recorded is not None:
            self.recorded[key] = got
            self.ledger.check(got is not None, f"{what}: nothing to record")
            return
        want = self.reference.get(key)
        self.ledger.check(got == want, f"{what}: got {got}, recorded {want}")

    def _compare_row(self, key: str, row, what: str) -> None:
        if isinstance(row, dict):
            row = {c: row.get(c) for c in REPORT_COLUMNS}
        if self.recorded is not None:
            self._compare(key, row, what)
            return
        want = self.reference.get(key)
        bad = [c for c in REPORT_COLUMNS
               if not (isinstance(row, dict) and isinstance(want, dict)
                       and _same(row[c], want.get(c)))]
        self.ledger.check(not bad, f"{what}: columns {bad} differ from the recorded row "
                          f"({row} vs {want})")


def _same(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    return type(got) is type(want) and got == want


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n", encoding="utf-8")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _read_curated(path: Path) -> list | None:
    """(id, cap) pairs of a curated file, compared as values, not bytes."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        return [[obj["id"], obj["cap"]] for obj in map(json.loads, filter(None, lines))]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _disk_bytes(path: Path) -> int:
    return sum(os.path.getsize(Path(d) / f) for d, _, files in os.walk(path) for f in files)


# ---------------------------------------------------------------------------
# layer metrics from spans


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], reach), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s["end"] - s["start"] - covered)
    return out


def layer_metrics(span_files: list[Path], overhead_s: float) -> tuple[dict, set[str]]:
    """Per-layer metric values, and the names of the spans that were entered."""
    agg: dict[str, dict] = {}
    for path in span_files:
        spans = _read_json(path) or []
        for s, self_s in zip(spans, self_times(spans)):
            a = agg.setdefault(s["name"], {"s": 0.0, "calls": 0, "count": 0, "bytes": 0,
                                           "wall": 0.0, "rss": 0, "steps": []})
            a["s"] += self_s
            a["calls"] += 1
            a["count"] += s["count"]
            a["bytes"] += s["bytes"]
            a["wall"] += s["end"] - s["start"]
            a["rss"] = max(a["rss"], s.get("rss", 0))
            if s["count"]:
                a["steps"].append(s["end"] - s["start"])
    empty = {"s": 0.0, "calls": 0, "count": 0, "bytes": 0, "wall": 0.0, "rss": 0, "steps": []}
    read_mb = agg.get("fileio.read", empty)["bytes"] / MIB
    crc_mb = agg.get("fileio.crc32c", empty)["bytes"] / MIB
    values = {}
    for name, _, _ in LAYER_METRICS:
        span, _, kind = name.rpartition(".")
        a = agg.get(span, empty)
        if name == "trace.overhead_s":
            values[name] = overhead_s
        elif name == "pool.verify_to_read_ratio":
            values[name] = crc_mb / read_mb if read_mb else 0.0
        elif kind == "s":
            values[name] = a["s"]
        elif kind == "calls":
            values[name] = a["calls"]
        elif kind == "mb":
            values[name] = a["bytes"] / MIB
        elif kind == "mb_per_s":
            values[name] = a["bytes"] / MIB / a["wall"] if a["wall"] else 0.0
        elif kind == "rss_mb":
            values[name] = a["rss"] / MIB
        elif kind == "iter_s":
            values[name] = statistics.median(a["steps"]) if a["steps"] else 0.0
        else:  # rows, entries, captions, iters
            values[name] = a["count"]
    return values, {name for name, a in agg.items() if a["calls"]}


# ---------------------------------------------------------------------------
# machine info and entry point


def machine_info(workload: str, seed: int, scale: str) -> dict:
    numpy_version = run_proc(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], ROOT,
        time.monotonic() + 60).stdout.strip()
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "pool_seed": seed % REFERENCE_SEEDS,
        "pool_records": SCALES[scale][workload],
        "scale": scale,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": _git_commit(),
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def execute(workload: str, seed: int, seconds: int, trace: bool, scale: str,
            record: bool, references: dict | None = None) -> tuple[dict, Ledger]:
    """One benchmark run; returns the result object and the ledger.

    With ``record`` the run's outputs replace its entry in references.json
    when no operation failed.
    """
    stored = _read_json(REFERENCES)
    if not isinstance(stored, dict):
        if not record:
            raise SetupError(f"cannot read {REFERENCES}")
        stored = {}
    ledger = Ledger()
    run = Run(workload, seed, scale, ledger, stored if references is None else references,
              record)
    try:
        if not trace:
            setup_s = run.setup(traced=False)
            if workload != QS:  # its inputs were just written; quickstart writes its own
                run.timed_pass(traced=False)
            passes: list[Pass] = []
            started = time.monotonic()
            while not passes or (
                    time.monotonic() + statistics.median(p.total_s for p in passes)
                    < min(started + seconds, run.deadline - 10)):
                passes.append(run.timed_pass(traced=False))
            metrics = {
                "total_s": statistics.median([p.total_s for p in passes]),
                "cpu_s": statistics.median([p.cpu_s for p in passes]),
                "peak_rss_mb": statistics.median([p.peak_rss_mb for p in passes]),
                "setup_s": setup_s,
                "disk_mb": statistics.median([p.disk_mb for p in passes]),
            }
            units = dict(END_TO_END)
            print(f"{workload}: {len(passes)} pass(es): " + ", ".join(
                f"total_s={p.total_s:.3f} cpu_s={p.cpu_s:.3f}" for p in passes))
        else:
            run.setup(traced=True)
            untraced = run.timed_pass(traced=False)
            traced = run.timed_pass(traced=True)
            metrics, entered = layer_metrics(run.spans, traced.total_s - untraced.total_s)
            for name, _, on in LAYER_METRICS:
                span = name.rpartition(".")[0]
                if workload in on and not name.startswith("pool.verify"):
                    ledger.check(span in entered,
                                 f"traced run never entered span {span} on {workload}")
            units = {name: unit for name, unit, _ in LAYER_METRICS}
    finally:
        run.close()
    if record and not ledger.failures:
        stored[run.key] = run.recorded
        REFERENCES.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    result = {
        "correct": not ledger.failures and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, ledger


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=ALL)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full",
                        help="pool sizes; tiny is for the self-test")
    parser.add_argument("--record", action="store_true",
                        help="record this run's outputs as the reference values")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        if not (SRC / "capforge" / "cli.py").is_file():
            raise SetupError(f"no capforge sources at {SRC}")
        print(json.dumps({"info": machine_info(args.workload, args.seed, args.scale)}))
        result, _ = execute(args.workload, args.seed, args.seconds, bool(args.trace),
                            args.scale, args.record)
    except SetupError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    for name, value in result["metrics"].items():
        print(f"{name} = {value['value']:.6g} {value['unit']}")
    ratio = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"failed_ops_ratio = {ratio:.6g} ({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
