"""Per-layer tracing of the SLIM pipeline, from outside the program.

``traced_run_slim`` calls the public functions of each layer in the
order ``repro.core.slim.run_slim`` calls them, with a span around each
call. A span sets a Spark job group for its duration and, on exit,
reads the jobs of that group from Spark's status store (which works
with the UI disabled): jobs, stages run, tasks, executor run time and
shuffle bytes. Setting a job group launches no Spark work.

The ``histories`` layers are lazy DataFrames inside ``run_slim``; here
each is forced with ``count()`` so that its cost shows in its own span.
Those probes are extra work, which is why a traced run is kept apart
from the timed runs and why its overhead is reported.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import functions as F

from repro.core import gmm, histories, matching, proximity, similarity
from repro.core.lsh import lsh_candidates
from repro.grid import cells


def group_counters(sc, group: str) -> dict[str, float]:
    """Spark work done by the jobs of one job group.

    The status store's job and stage lists are serialized to JSON in
    the JVM, one call each, instead of being walked object by object
    over py4j (which costs seconds per ``run_slim`` call). Skipped
    stages (shuffle output reused from an earlier job) ran no tasks and
    are not counted.
    """
    jsc = sc._jsc.sc()
    jsc.listenerBus().waitUntilEmpty()
    store = jsc.statusStore()
    jvm = sc._jvm
    mapper = jvm.com.fasterxml.jackson.databind.ObjectMapper()
    mapper.registerModule(
        getattr(getattr(jvm.com.fasterxml.jackson.module.scala, "DefaultScalaModule$"), "MODULE$")
    )
    jobs = json.loads(mapper.writeValueAsString(store.jobsList(None)))
    jobs = [j for j in jobs if j.get("jobGroup") == group]
    stage_ids = {sid for j in jobs for sid in j["stageIds"]}
    no_quantiles = sc._gateway.new_array(jvm.double, 0)
    stages = json.loads(
        mapper.writeValueAsString(store.stageList(None, False, False, no_quantiles, None))
    )
    ran = [st for st in stages if st["stageId"] in stage_ids and st["status"] != "SKIPPED"]
    return {
        "jobs": len(jobs),
        "stages": len(ran),
        "tasks": sum(st["numCompleteTasks"] for st in ran),
        "executor_s": sum(st["executorRunTime"] for st in ran) / 1e3,
        "shuffle_read_mb": sum(st["shuffleReadBytes"] for st in ran) / 1e6,
        "shuffle_write_mb": sum(st["shuffleWriteBytes"] for st in ran) / 1e6,
    }


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: str | None = None
    run_id: str = ""
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; the caller writes them out at exit."""

    def __init__(self, sc, run_id: str):
        self.sc = sc
        self.run_id = run_id
        self.spans: list[Span] = []

    @contextmanager
    def span(self, name: str, *, parent: str | None = None, spark: bool = True):
        """Time a block; with ``spark`` also count the Spark jobs it ran."""
        group = f"{self.run_id}/{len(self.spans)}/{name}"
        s = Span(name=name, start=time.monotonic(), parent=parent, run_id=self.run_id)
        if spark:
            self.sc.setJobGroup(group, name)
        try:
            yield s
        finally:
            s.end = time.monotonic()
            if spark:
                self.sc.setLocalProperty("spark.jobGroup.id", None)
                s.counters.update(group_counters(self.sc, group))
            self.spans.append(s)

    def as_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "run_id": s.run_id,
                **s.counters,
            }
            for s in self.spans
        ]


@dataclass
class TracedResult:
    """What ``run_slim`` returns that the checks need, plus layer counts."""

    links: object
    matched: object
    candidates: object  # cached Spark DataFrame; the caller unpersists it
    bins: tuple
    layer: dict[str, float]


def traced_run_slim(tracer: Tracer, rec_e, rec_i, cfg) -> TracedResult:
    """``run_slim``'s stage sequence with one span per layer call."""
    root = "slim.traced"
    layer = {"gmm.two_component": 0.0, "gmm.separation": 0.0}
    with tracer.span(root, spark=False):
        with tracer.span("histories.build_bins", parent=root) as s:
            bins_e = histories.build_bins(rec_e, level=cfg.level, window_sec=cfg.window_sec)
            bins_i = histories.build_bins(rec_i, level=cfg.level, window_sec=cfg.window_sec)
            s.counters["rows"] = bins_e.count() + bins_i.count()
        with tracer.span("histories.idf", parent=root) as s:
            s.counters["rows"] = histories.idf(bins_e).count() + histories.idf(bins_i).count()
        with tracer.span("histories.norm_factors", parent=root) as s:
            s.counters["rows"] = (
                histories.norm_factors(bins_e, b=cfg.b).count()
                + histories.norm_factors(bins_i, b=cfg.b).count()
            )
        name = "lsh.lsh_candidates" if cfg.use_lsh else "similarity.all_pairs"
        with tracer.span(name, parent=root) as s:
            if cfg.use_lsh:
                candidates, _ = lsh_candidates(
                    rec_e, rec_i, window_sec=cfg.window_sec, cfg=cfg.lsh
                )
            else:
                candidates = similarity.all_pairs(bins_e, bins_i)
            candidates = candidates.cache()
            n_candidates = s.counters["rows"] = candidates.count()
        with tracer.span("similarity.pair_scores", parent=root) as s:
            scored = similarity.pair_scores(
                bins_e,
                bins_i,
                candidates,
                level=cfg.level,
                window_sec=cfg.window_sec,
                alpha_m_per_sec=cfg.alpha_m_per_sec,
                b=cfg.b,
                pairing=cfg.pairing,
                use_mfn=cfg.use_mfn,
                use_idf=cfg.use_idf,
                use_norm=cfg.use_norm,
            ).toPandas()
            s.counters["rows"] = len(scored)
        edges = scored[scored["score"] > 0][["u", "v", "score"]]
        with tracer.span("matching.greedy_match", parent=root, spark=False) as s:
            matched = matching.greedy_match(edges)
            s.counters["rows"] = len(edges)
        links = matched
        with tracer.span("gmm.select_stop_threshold", parent=root, spark=False):
            if len(matched) >= 4:
                threshold = gmm.select_stop_threshold(matched["score"].to_numpy())
                links = matched[matched["score"] > threshold.threshold].reset_index(drop=True)
                layer["gmm.two_component"] = float(np.isfinite(threshold.threshold))
                layer["gmm.separation"] = threshold.separation
    layer["candidates.useful_ratio"] = len(edges) / max(n_candidates, 1)
    return TracedResult(links, matched, candidates, (bins_e, bins_i), layer)


def kernel_probe(bins_e, bins_i, candidates, cfg) -> tuple[float, int]:
    """CPU seconds of the scoring kernel's numpy work, run in this process.

    Pulls the window-joined bin-pair rows that ``pair_scores`` hands to
    its ``applyInPandas`` kernel, then for each (u, v) group runs the
    distance, proximity and greedy MNN/MFN selection on one core.
    Returns (CPU seconds, rows).
    """
    e = bins_e.select(F.col("entity").alias("u"), "window", F.col("cell").alias("cell_e"))
    i = bins_i.select(F.col("entity").alias("v"), "window", F.col("cell").alias("cell_i"))
    rows = (
        candidates.join(e, "u")
        .join(i, ["v", "window"])
        .select("u", "v", "window", "cell_e", "cell_i")
        .toPandas()
        .sort_values(["u", "v"], kind="stable")
    )
    uv = rows[["u", "v"]].to_numpy()
    starts = np.flatnonzero(np.r_[True, (uv[1:] != uv[:-1]).any(axis=1)])
    bounds = np.r_[starts, len(rows)]
    win_all = rows["window"].to_numpy(np.int64)
    ce_all = rows["cell_e"].to_numpy(np.int64)
    ci_all = rows["cell_i"].to_numpy(np.int64)
    runaway = proximity.runaway_distance_m(cfg.window_sec, cfg.alpha_m_per_sec)
    t0 = time.process_time()
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        win, ce, ci = win_all[lo:hi], ce_all[lo:hi], ci_all[lo:hi]
        d = cells.min_distance_m(ce, ci, cfg.level)
        proximity.proximity(d, runaway)
        eid = np.unique(np.stack([win, ce], axis=1), axis=0, return_inverse=True)[1]
        iid = np.unique(np.stack([win, ci], axis=1), axis=0, return_inverse=True)[1]
        similarity.greedy_select_mask(win, eid, iid, d, furthest=False)
        if cfg.use_mfn:
            similarity.greedy_select_mask(win, eid, iid, d, furthest=True)
    return time.process_time() - t0, len(rows)
