#!/usr/bin/env python3
"""SLIM linkage benchmark: end-to-end link time and quality, per-layer cost.

    python3 slimbench/run.py --workload cab-bf --seed 3 --seconds 40 --trace 0
    python3 slimbench/run.py --smoke             # every workload, test scale
    python3 slimbench/run.py --write-reference   # regenerate slimbench/reference/

Run from the repository root. One process is one closed loop with one
caller: ``repro.core.slim.run_slim`` is called on the workload's inputs
until ``--seconds`` of wall time are used, one call at a time. Each call
gets freshly lifted, cached and counted record DataFrames (outside the
timed region, so no cache keyed on the input carries over), from the
next corpus in turn, and its links and matched scores are checked
against ``reference/``. The first call is a warm-up and is not
reported. Timings are medians over the calls least disturbed by the
hypervisor.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` instead runs
the layer-by-layer composition of ``layers.py`` next to each
``run_slim`` call and prints the per-layer metrics. The last line of
standard output is the JSON result; the line before it holds the
environment and the raw samples. See README.md for the metrics, the
workloads and the layer each metric should move.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "slimbench"

#: Spark runs local[k]; k never exceeds the machine's cores. Two task
#: slots leave the other cores of a 4-core machine to the driver JVM,
#: the Python driver and the JVM's own threads: with four, tasks
#: compete with those and call times and task times vary more.
MAX_CORES = 2
#: Fewer than experiments.cli.build_session's 64: at 64 a brute-force
#: call spends about 20 s in per-task overhead even on tiny inputs,
#: which leaves no room for repeated calls in one run.
SHUFFLE_PARTITIONS = 4
DRIVER_MEMORY = "1g"
#: call i of a run (the warm-up is call 0) uses corpus
#: ``(seed + i) % N_CORPORA`` (its generator seed) in a record order
#: drawn from (seed, i): a run's median then spans several corpora, so
#: one corpus that is slower than the rest does not set a whole run.
#: reference/ holds the links of every corpus.
N_CORPORA = 8
SCORE_TOLERANCE = 1e-9
#: per-call timings reported as medians over the calls least disturbed
#: by the hypervisor (see Run.quiet_median)
TIMINGS = ("link_s", "setup_s", "executor_s")
#: steal below this share of the machine's CPU time counts as none
STEAL_FLOOR = 0.01

END_TO_END = {
    "link_s": "s",
    "setup_s": "s",
    "executor_s": "s",
    "jvm_peak_rss_mb": "MB",
    "f1": "ratio",
    "n_comparisons": "count",
    "n_candidates": "count",
    "success_rate": "ratio",
}

#: spans that run Spark jobs, reported with every status-store counter
SPARK_SPANS = (
    "histories.build_bins",
    "histories.idf",
    "histories.norm_factors",
    "candidates",
    "similarity.pair_scores",
)
COUNTER_UNITS = {
    "wall_s": "s",
    "jobs": "count",
    "stages": "count",
    "tasks": "count",
    "executor_s": "s",
    "shuffle_read_mb": "MB",
    "shuffle_write_mb": "MB",
}
PER_LAYER = {
    **{f"{span}.{c}": u for span in SPARK_SPANS for c, u in COUNTER_UNITS.items()},
    "histories.build_bins.rows": "count",
    "histories.idf.rows": "count",
    "histories.norm_factors.rows": "count",
    "candidates.truth_recall": "ratio",
    "candidates.useful_ratio": "ratio",
    "similarity.pair_scores.groups": "count",
    "similarity.kernel.cpu_s": "s",
    "similarity.kernel.rows": "count",
    "matching.greedy_match.wall_s": "s",
    "matching.greedy_match.edges": "count",
    "gmm.select_stop_threshold.wall_s": "s",
    "gmm.two_component": "bool",
    "gmm.separation": "ratio",
    "slim.run_slim.wall_s": "s",
    "slim.run_slim.jobs": "count",
    "slim.run_slim.tasks": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    dataset: str  # "cab" or "sm", see repro.mobility.generator
    scale: str
    use_lsh: bool


# Why each workload was chosen: README.md.
WORKLOADS = {
    "cab-bf": Workload("cab", "bench", use_lsh=False),
    "sm-large-lsh": Workload("sm", "large", use_lsh=True),
}


def prepare_environment() -> None:
    """Point Spark, its Python workers and temp files at this checkout.

    Must run before pyspark is imported: the JVM and the Python workers
    inherit this process's environment when the session starts.
    """
    if not (SRC / "repro").is_dir():
        sys.exit(f"slimbench: no SLIM sources at {SRC / 'repro'}; run from a full checkout")
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(SRC))


def session_configs() -> dict[str, str]:
    tmp = WORK / "tmp"
    return {
        "spark.master": f"local[{min(MAX_CORES, os.cpu_count() or 1)}]",
        "spark.driver.memory": DRIVER_MEMORY,
        "spark.driver.host": "127.0.0.1",
        # a fixed heap size: otherwise the JVM grows the heap when its
        # collector falls behind, and the peak RSS varies with how busy
        # the machine was rather than with what the program keeps
        "spark.driver.extraJavaOptions": f"-Xms{DRIVER_MEMORY} -Djava.io.tmpdir={tmp}",
        "spark.local.dir": str(tmp),
        "spark.sql.warehouse.dir": str(WORK / "warehouse"),
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.sql.shuffle.partitions": str(SHUFFLE_PARTITIONS),
        "spark.sql.execution.arrow.pyspark.enabled": "true",
        "spark.sql.autoBroadcastJoinThreshold": "-1",
    }


def start_session():
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("slimbench")
    for k, v in session_configs().items():
        builder = builder.config(k, v)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    proc = spark.sparkContext._gateway.proc
    spark.stop()
    SparkContext._gateway.shutdown()
    proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def jvm_peak_rss_mb(spark) -> float:
    """VmHWM of the driver JVM."""
    pid = spark.sparkContext._gateway.proc.pid
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def slim_config(wl: Workload):
    from repro.core.lsh import LshConfig
    from repro.core.slim import SlimConfig

    if wl.use_lsh:
        return SlimConfig(lsh=LshConfig(level=16, step=4, threshold=0.6, n_buckets=4096))
    return SlimConfig(use_lsh=False)


def make_pair(wl: Workload, corpus: int, scale: str):
    from repro.mobility import generator

    maker = {"cab": generator.cab_pair, "sm": generator.sm_pair}[wl.dataset]
    return maker(scale=scale, seed=corpus)


def lift(spark, pair, order_seed: list[int]):
    """Records in seed-shuffled order as cached, counted DataFrames."""
    import numpy as np
    from repro.mobility import generator

    out = []
    for k, side in enumerate((pair.e_records, pair.i_records)):
        order = np.random.default_rng([*order_seed, k]).permutation(len(side))
        df = generator.to_spark(spark, side.iloc[order]).cache()
        df.count()
        out.append(df)
    return out


def steal_s() -> float:
    """CPU time the hypervisor took from this machine so far, all cores.

    The ``steal`` column of /proc/stat; 0 where the kernel reports none.
    """
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Stopwatch:
    """Wall time and the share of the machine's CPU time stolen meanwhile."""

    def __enter__(self):
        self.t0, self.s0 = time.monotonic(), steal_s()
        return self

    def __exit__(self, *exc):
        self.wall = time.monotonic() - self.t0
        self.steal = (steal_s() - self.s0) / (max(self.wall, 1e-9) * (os.cpu_count() or 1))


def corpus_of(seed: int, call: int) -> int:
    return (seed + call) % N_CORPORA


def fresh_inputs(spark, wl: Workload, seed: int, scale: str, call: int):
    """Generate and lift call ``call``'s instance; (rec_e, rec_i, truth, stopwatch)."""
    with Stopwatch() as sw:
        pair = make_pair(wl, corpus_of(seed, call), scale)
        rec_e, rec_i = lift(spark, pair, [seed, call])
    return rec_e, rec_i, pair.truth, sw


def reference_path(name: str) -> Path:
    return BENCH_DIR / "reference" / f"{name}.json"


def reference_entry(links, matched) -> dict:
    """Matched pairs as ``[u, v, score, linked]`` rows."""
    linked = set(zip(links["u"].tolist(), links["v"].tolist()))
    rows = zip(matched["u"].tolist(), matched["v"].tolist(), matched["score"].tolist())
    return {"matched": [[u, v, s, int((u, v) in linked)] for u, v, s in rows]}


def mismatch(links, matched, ref: dict | None) -> str | None:
    """Why a result differs from ``ref`` (None when it matches or no ``ref``)."""
    if ref is None:
        return None
    got = reference_entry(links, matched)["matched"]
    want = ref["matched"]
    if {(u, v) for u, v, _, ln in got if ln} != {(u, v) for u, v, _, ln in want if ln}:
        return "link set differs"
    got_s = {(u, v): s for u, v, s, _ in got}
    want_s = {(u, v): s for u, v, s, _ in want}
    if got_s.keys() != want_s.keys():
        return "matched pairs differ"
    worst = max((abs(got_s[k] - want_s[k]) for k in want_s), default=0.0)
    if worst > SCORE_TOLERANCE:
        return f"a matched score differs by {worst:.3g}"
    return None


def timed_iterations(seconds: float, first: int):
    """Yield iteration numbers from ``first`` until ``seconds`` of wall time are used.

    An iteration starts only if one more of the longest so far still
    fits, so a run measures at most about ``seconds``, and at least one
    iteration.
    """
    deadline = time.monotonic() + seconds
    longest = 0.0
    i = first
    while True:
        t0 = time.monotonic()
        yield i
        longest = max(longest, time.monotonic() - t0)
        i += 1
        if time.monotonic() + longest > deadline:
            return


def call_slim(spark, rec_e, rec_i, cfg, group: str):
    """One ``run_slim`` call inside a job group; (result, stopwatch, counters)."""
    from layers import group_counters
    from repro.core.slim import run_slim

    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        with Stopwatch() as sw:
            res = run_slim(rec_e, rec_i, cfg)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return res, sw, group_counters(sc, group)


class Run:
    """Bookkeeping of one benchmark run: calls, failures, samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def add(self, **values: float) -> None:
        for k, v in values.items():
            self.samples.setdefault(k, []).append(v)

    def medians(self) -> dict[str, float]:
        return {k: statistics.median(v) for k, v in self.samples.items()}

    def quiet_median(self, name: str) -> float:
        """Median of ``name`` over the less disturbed half of the calls.

        On a shared virtual machine the hypervisor takes CPU time away
        in bursts (``steal``); a call hit by one runs up to half as long
        again, for reasons outside the program. Each sample is stored
        with the steal share of its own interval (``<name>.steal``), and
        the samples whose steal is at most the run's median steal, or
        below STEAL_FLOOR, are kept. The selection never looks at the
        timings themselves.
        """
        values, steal = self.samples[name], self.samples[f"{name}.steal"]
        limit = max(statistics.median(steal), STEAL_FLOOR)
        return statistics.median(v for v, s in zip(values, steal) if s <= limit)

    def fail(self, what: str, why: str, *, counted: bool = True) -> None:
        self.errors.append(f"{what}: {why}")
        self.failed += counted


def reference_of(refs: dict | None, seed: int, call: int) -> dict | None:
    return None if refs is None else refs[str(corpus_of(seed, call))]


def warm_up(spark, wl: Workload, cfg, seed: int, scale: str, refs, run: Run) -> None:
    """One untimed call (call 0), so JIT, Python workers and caches are warm."""
    rec_e, rec_i, _, _ = fresh_inputs(spark, wl, seed, scale, 0)
    try:
        res, _, _ = call_slim(spark, rec_e, rec_i, cfg, "warm-up")
        why = mismatch(res.links, res.matched, reference_of(refs, seed, 0))
        if why:
            run.fail("warm-up", why, counted=False)
    finally:
        rec_e.unpersist()
        rec_i.unpersist()


def measure(spark, name: str, seed: int, seconds: float, scale: str, refs) -> tuple[Run, dict]:
    """End-to-end metrics of repeated ``run_slim`` calls (``--trace 0``)."""
    from repro.core import metrics

    wl = WORKLOADS[name]
    cfg = slim_config(wl)
    run = Run()
    warm_up(spark, wl, cfg, seed, scale, refs, run)
    quality = None
    for i in timed_iterations(seconds, first=1):
        rec_e, rec_i, truth, setup = fresh_inputs(spark, wl, seed, scale, i)
        run.attempted += 1
        run.add(setup_s=setup.wall, **{"setup_s.steal": setup.steal})
        try:
            res, call, counters = call_slim(spark, rec_e, rec_i, cfg, f"run_slim/{i}")
        except Exception:
            run.fail(f"call {i}", traceback.format_exc())
            continue
        finally:
            rec_e.unpersist()
            rec_i.unpersist()
        why = mismatch(res.links, res.matched, reference_of(refs, seed, i))
        if why:
            run.fail(f"call {i}", why)
            continue
        run.add(
            link_s=call.wall,
            executor_s=counters["executor_s"],
            **{"link_s.steal": call.steal, "executor_s.steal": call.steal},
        )
        if quality is not None:
            continue
        # of the first good timed call: a fixed corpus for a given seed
        quality = {
            "f1": metrics.evaluate_links(res.links, truth).f1,
            "n_comparisons": res.n_comparisons,
            "n_candidates": res.n_candidates,
        }
    if quality is None:
        raise RuntimeError("no call succeeded:\n" + "\n".join(run.errors))
    values = {
        **{k: run.quiet_median(k) for k in TIMINGS},
        **quality,
        "jvm_peak_rss_mb": jvm_peak_rss_mb(spark),
        "success_rate": (run.attempted - run.failed) / run.attempted,
    }
    return run, {k: values[k] for k in END_TO_END}


def layer_values(tracer, traced, slim_wall: float, slim_counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced composition."""
    out = dict(traced.layer)
    for span in tracer.spans:
        key = "candidates" if span.name in ("similarity.all_pairs", "lsh.lsh_candidates") else span.name
        if key in SPARK_SPANS:
            out[f"{key}.wall_s"] = span.wall_s
            out.update({f"{key}.{c}": span.counters[c] for c in COUNTER_UNITS if c != "wall_s"})
        if key.startswith("histories."):
            out[f"{key}.rows"] = span.counters["rows"]
        elif key == "similarity.pair_scores":
            out["similarity.pair_scores.groups"] = span.counters["rows"]
        elif key == "matching.greedy_match":
            out["matching.greedy_match.wall_s"] = span.wall_s
            out["matching.greedy_match.edges"] = span.counters["rows"]
        elif key == "gmm.select_stop_threshold":
            out["gmm.select_stop_threshold.wall_s"] = span.wall_s
        elif key == "slim.traced":
            out["trace.overhead_ratio"] = span.wall_s / slim_wall
    out["slim.run_slim.wall_s"] = slim_wall
    out["slim.run_slim.jobs"] = slim_counters["jobs"]
    out["slim.run_slim.tasks"] = slim_counters["tasks"]
    return out


def measure_traced(spark, name: str, seed: int, seconds: float, scale: str, refs) -> tuple[Run, dict, list]:
    """Per-layer metrics (``--trace 1``).

    Each iteration makes one plain ``run_slim`` call and one traced
    composition on fresh inputs; the traced links must equal both the
    call's and the reference. The kernel probe runs once, at the end,
    on the last composition's bins and candidates.
    """
    from layers import Tracer, kernel_probe, traced_run_slim

    wl = WORKLOADS[name]
    cfg = slim_config(wl)
    run = Run()
    warm_up(spark, wl, cfg, seed, scale, refs, run)
    spans: list[dict] = []
    last = None
    for i in timed_iterations(seconds, first=1):
        rec_e, rec_i, _, _ = fresh_inputs(spark, wl, seed, scale, i)
        run.attempted += 1
        try:
            res, call, counters = call_slim(spark, rec_e, rec_i, cfg, f"run_slim/{i}")
        finally:
            rec_e.unpersist()
            rec_i.unpersist()
        if last is not None:
            for df in (last[0].candidates, *last[1:]):
                df.unpersist()
        rec_e, rec_i, truth, _ = fresh_inputs(spark, wl, seed, scale, i)
        tracer = Tracer(spark.sparkContext, run_id=f"{name}/{seed}/{i}")
        traced = traced_run_slim(tracer, rec_e, rec_i, cfg)
        last = (traced, rec_e, rec_i)
        spans += tracer.as_json()
        expected = reference_entry(res.links, res.matched)
        why = mismatch(traced.links, traced.matched, expected) or mismatch(
            traced.links, traced.matched, reference_of(refs, seed, i)
        )
        if why:
            run.fail(f"traced composition {i}", why)
            continue
        run.add(**layer_values(tracer, traced, call.wall, counters))
    traced, rec_e, rec_i = last
    cand = traced.candidates.toPandas()
    pairs = set(zip(cand["u"].tolist(), cand["v"].tolist()))
    hits = sum((u, v) in pairs for u, v in zip(truth["u"].tolist(), truth["v"].tolist()))
    cpu_s, rows = kernel_probe(*traced.bins, traced.candidates, cfg)
    for df in (traced.candidates, rec_e, rec_i):
        df.unpersist()
    if not run.samples:
        raise RuntimeError("no traced composition succeeded:\n" + "\n".join(run.errors))
    values = {
        **run.medians(),
        "candidates.truth_recall": hits / max(len(truth), 1),
        "similarity.kernel.cpu_s": cpu_s,
        "similarity.kernel.rows": rows,
    }
    return run, {k: values[k] for k in PER_LAYER}, spans


def environment(spark, session_start_s: float) -> dict:
    import pyspark

    return {
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "session_configs": session_configs(),
        "pyspark": pyspark.__version__,
        "java": spark.sparkContext._jvm.System.getProperty("java.version"),
        "python": platform.python_version(),
        "session_start_s": session_start_s,
    }


def write_reference(spark) -> None:
    """Record every corpus's links and matched scores under reference/."""
    for name, wl in WORKLOADS.items():
        cfg = slim_config(wl)
        entries = []
        for corpus in range(N_CORPORA):
            rec_e, rec_i, _, _ = fresh_inputs(spark, wl, corpus, wl.scale, 0)
            res, _, _ = call_slim(spark, rec_e, rec_i, cfg, f"reference/{corpus}")
            rec_e.unpersist()
            rec_i.unpersist()
            entries.append(f'  "{corpus}": ' + json.dumps(reference_entry(res.links, res.matched)))
            print(f"{name} corpus {corpus}: {len(res.links)} links", file=sys.stderr)
        text = (
            f'{{"workload": "{name}", "tolerance": {SCORE_TOLERANCE}, "corpora": {{\n'
            + ",\n".join(entries)
            + "\n}}\n"
        )
        reference_path(name).write_text(text)


def smoke(spark) -> bool:
    """Every workload once at test scale, both modes; True when all is well.

    Checks that each mode reports exactly its named metrics with their
    units, that BENCHMARK.json (when present) names the same metrics,
    and that the traced composition's links equal ``run_slim``'s.
    """
    ok = True
    declared = ROOT / "BENCHMARK.json"
    if declared.is_file():
        spec = json.loads(declared.read_text())
        for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != names:
                print(f"smoke: BENCHMARK.json {key} differs from run.py", file=sys.stderr)
                ok = False
        if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            print("smoke: BENCHMARK.json workloads differ from run.py", file=sys.stderr)
            ok = False
    for name in WORKLOADS:
        run, values = measure(spark, name, 0, 1.0, "test", None)
        traced_run, layer, _ = measure_traced(spark, name, 0, 1.0, "test", None)
        for mode, r, got, want in (
            ("trace 0", run, values, END_TO_END),
            ("trace 1", traced_run, layer, PER_LAYER),
        ):
            problems = list(r.errors)
            if set(got) != set(want):
                problems.append(f"metrics {sorted(set(got) ^ set(want))} missing or extra")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {name} {mode}: {status}", file=sys.stderr)
            ok &= not problems
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="self-test every workload at test scale")
    ap.add_argument("--write-reference", action="store_true", help="regenerate reference/")
    ns = ap.parse_args()
    if not (ns.smoke or ns.write_reference or ns.workload):
        ap.error("--workload is required")
    prepare_environment()
    t0 = time.monotonic()
    spark = start_session()
    session_start_s = time.monotonic() - t0
    try:
        if ns.smoke:
            return 0 if smoke(spark) else 1
        if ns.write_reference:
            write_reference(spark)
            return 0
        wl = WORKLOADS[ns.workload]
        refs = json.loads(reference_path(ns.workload).read_text())["corpora"]
        env = environment(spark, session_start_s)
        spans = []
        if ns.trace:
            run, values, spans = measure_traced(spark, ns.workload, ns.seed, ns.seconds, wl.scale, refs)
            units = PER_LAYER
        else:
            run, values = measure(spark, ns.workload, ns.seed, ns.seconds, wl.scale, refs)
            units = END_TO_END
    finally:
        stop_session(spark)
    if spans:
        out = WORK / "spans" / f"{ns.workload}-seed{ns.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(spans, indent=1))
    details = {
        "workload": ns.workload,
        "seed": ns.seed,
        "first_corpus": ns.seed % N_CORPORA,
        "trace": ns.trace,
        "env": env,
        "samples": run.samples if not ns.trace else {"n": len(next(iter(run.samples.values())))},
        "errors": run.errors,
    }
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": not run.errors,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
