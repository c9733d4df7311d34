"""The traced run: where the time of a workload goes, layer by layer.

Layers are the repo's module names.  The harness records its own spans
(:mod:`spans`) around calls into each layer's public functions; nothing under
``src/`` is instrumented.  Where a layer only runs *inside* another call the
harness re-invokes it on the artefacts the outer call returned (``regionalize``
on ``histogram.coarsening.grid``), and for the streaming engine it passes the
engine's existing public ``tracer=`` argument to split ``process_batch``.

A traced run alternates traced and untraced passes; the untraced ones are the
baseline for ``obs.trace_overhead_ratio`` and for the ratios defined on op
times.  Every span's seconds are divided by the mean slowdown of the pass
they were taken in (:mod:`calibrate`) and repeated spans take the median over
the passes.  End-to-end metrics never come from here.  A metric reads 0 on a
workload that does not run its layer.
"""

from __future__ import annotations

import dataclasses

import numpy as np

import calibrate
import measure
import reference
from spans import SpanLog
from workloads import ENGINE_SEED, WEIGHTS

__all__ = ["traced_run"]

#: The engine tracer's stage spans, by the metric each feeds.
ENGINE_STAGES = {
    "route": "streaming.engine.route_ms",
    "incremental_count": "streaming.engine.count_ms",
    "evict": "streaming.engine.evict_ms",
    "compact": "streaming.engine.compact_ms",
    "drift_decide": "streaming.engine.decide_ms",
    "migrate": "streaming.engine.migrate_ms",
}


def _mean_ms(seconds) -> float:
    return 1e3 * float(np.mean(seconds)) if len(seconds) else 0.0


def traced_run(spec, inputs: dict, passes: int, out_dir, names) -> "tuple[dict, dict]":
    """Alternate traced and untraced passes; returns (per-layer metrics, checks).

    ``names`` are the per-layer metrics of BENCHMARK.json; one that the
    workload's layers do not produce reads 0.
    """
    log = SpanLog()
    metrics = dict.fromkeys(names, 0.0)
    trace = (_BatchTrace if spec.kind == "batch" else _StreamTrace)(spec, inputs, log)
    untraced = measure.measure(spec, inputs, passes, before_pass=trace.traced_pass)
    untraced["extra_ok"] = trace.finish(untraced["passes"], metrics)
    untraced_wall = np.median([sum(p.seconds) / p.mean_slowdown for p in untraced["passes"]])
    metrics["obs.trace_overhead_ratio"] = float(np.median(trace.walls) / untraced_wall)
    log.write(out_dir / f"{spec.name}.spans.jsonl", out_dir / f"{spec.name}.trace.json")
    return metrics, untraced


# ----------------------------------------------------------------------
# Batch: the planner's stages, then routing and counting
# ----------------------------------------------------------------------
class _BatchTrace:
    """Traced batch passes: build and execute under spans, inner layers replayed."""

    def __init__(self, spec, inputs, log) -> None:
        self.inputs, self.log = inputs, log
        self.walls: "list[float]" = []
        self.slowdowns: "list[float]" = []
        self.ok = True
        self.stage_sampling: "list[float]" = []
        self.counts = {name: [] for name in (
            "core.sample_cells", "core.coarse_cells", "core.regions",
            "core.estimate_error", "partitioning.replication_factor")}

    def traced_pass(self, pass_id: int) -> None:
        from repro import BandJoinCondition, WeightFunction, build_ewh_partitioning
        from repro import run_partitioned_join
        from repro.core.coarsening import coarsen, coarsened_size
        from repro.core.regionalization import regionalize
        from repro.joins.local import count_join_output

        log = self.log
        log.pass_id = pass_id
        weights = WeightFunction(*WEIGHTS)
        wall = 0.0
        probes = []
        for job in self.inputs["jobs"]:
            probes.append(calibrate.probe(measure.BATCH_PROBE_ROUNDS))
            keys1, keys2, machines = job["keys1"], job["keys2"], job["machines"]
            condition = BandJoinCondition(beta=float(job["beta"]))
            rng = np.random.default_rng(ENGINE_SEED)
            with log.span("job", label=job["label"]) as job_span:
                with log.span("partitioning.build"):
                    partitioning = build_ewh_partitioning(
                        keys1, keys2, condition, machines, weight_fn=weights, rng=rng
                    )
                with log.span("engine.execute"):
                    execution = run_partitioned_join(
                        partitioning, keys1, keys2, condition, rng
                    )
            wall += job_span["end"] - job_span["start"]
            self.ok &= execution.total_output == job["expected"]
            histogram = partitioning.histogram

            # Layers that only run inside the build, re-invoked on its
            # artefacts.  The grids are rebuilt from their fields first: a grid
            # memoises rectangle queries, and a warm memo would flatter the replay.
            grid = histogram.sample_matrix.grid
            size = coarsened_size(machines, grid.num_rows)
            sample_grid = dataclasses.replace(grid)
            coarse_grid = dataclasses.replace(histogram.coarsening.grid)
            with log.span("replay", label=job["label"]):
                with log.span("core.coarsen"):
                    coarsen(sample_grid, size, size, weights)
                with log.span("core.regionalize"):
                    regionalize(coarse_grid, machines, weights)
                with log.span("engine.route"):
                    routed1 = partitioning.assign_r1(keys1, rng)
                    routed2 = partitioning.assign_r2(keys2, rng)
                with log.span("joins.count"):
                    for index1, index2 in zip(routed1, routed2):
                        count_join_output(keys1[index1], keys2[index2], condition)

            if pass_id == 0:
                achieved = execution.max_weight(weights)
                self.counts["core.sample_cells"].append(grid.num_candidate_cells)
                self.counts["core.coarse_cells"].append(
                    histogram.coarsening.grid.num_candidate_cells)
                self.counts["core.regions"].append(histogram.num_regions)
                self.counts["core.estimate_error"].append(
                    abs(histogram.estimated_max_weight - achieved) / achieved)
                self.counts["partitioning.replication_factor"].append(
                    execution.replication_factor)
            self.stage_sampling.append(histogram.stage_seconds["sampling"])
        probes.append(calibrate.probe())
        self.slowdowns.append(float(np.mean(probes)))
        self.walls.append(wall / self.slowdowns[-1])

    def finish(self, untraced, metrics) -> bool:
        passes = len(self.walls)
        slowdowns = np.array(self.slowdowns)[:, None]

        # Per job, the median over the traced passes; then the mean over jobs.
        def per_job_ms(name):
            seconds = np.array([self.log.seconds(name, p) for p in range(passes)])
            return 1e3 * float(np.median(seconds / slowdowns, axis=0).mean())

        for name in ("partitioning.build", "core.regionalize", "core.coarsen",
                     "engine.route", "joins.count", "engine.execute"):
            metrics[name + "_ms"] = per_job_ms(name)
        metrics["core.regionalize_share"] = (
            metrics["core.regionalize_ms"] / metrics["partitioning.build_ms"])
        metrics["sampling.sample_ms"] = (
            metrics["partitioning.build_ms"] - metrics["core.regionalize_ms"]
            - metrics["core.coarsen_ms"])
        reported = 1e3 * float(np.median(
            np.array(self.stage_sampling).reshape(passes, -1) / slowdowns, axis=0).mean())
        print(f"# sampling.sample_ms cross-check: build minus replays "
              f"{metrics['sampling.sample_ms']:.3f} ms, the build's own "
              f"stage_seconds['sampling'] {reported:.3f} ms")
        for name, values in self.counts.items():
            metrics[name] = float(np.mean(values))
        return bool(self.ok)


# ----------------------------------------------------------------------
# Stream: the engine's stages, its state layer, and checkpoints
# ----------------------------------------------------------------------
def _adopt_engine_spans(tracer, log, batch_span_ids) -> "list[dict]":
    """Hang the engine tracer's stage spans under the harness's batch spans.

    Returns, per processed batch, ``{"batch": seconds, stage: seconds, ...}``.
    The engine finishes a batch's stage spans before the batch span itself.
    """
    per_batch = []
    stages: dict = {}
    pending = []
    for span in tracer.spans:
        if span.category == "stage":
            stages[span.name] = stages.get(span.name, 0.0) + span.duration
            pending.append(span)
        elif span.name == "batch":
            parent = batch_span_ids[len(per_batch)]
            for stage in pending:
                log.adopt("streaming.engine." + stage.name, stage.start,
                          stage.duration, parent)
            per_batch.append({"batch": span.duration, **stages})
            stages, pending = {}, []
    return per_batch


class _StreamTrace:
    """Traced stream passes: engine tracer on, checkpoints at three boundaries."""

    def __init__(self, spec, inputs, log) -> None:
        self.spec, self.inputs, self.log = spec, inputs, log
        self.walls: "list[float]" = []
        self.traced: list = []
        self.per_pass_batches: "list[list[dict]]" = []
        num_batches = len(inputs["arrays"])
        self.boundaries = {num_batches // 4, num_batches // 2, 3 * num_batches // 4}
        self.checkpoints = {"capture": [], "encode": [], "restore": [], "bytes": []}
        self.resumed = None
        self.resumed_at = None

    def _checkpoint_round_trip(self, engine, position) -> None:
        from repro import StreamingJoinEngine
        from repro.streaming import StreamCheckpoint

        if position + 1 not in self.boundaries:
            return
        log, taken = self.log, self.checkpoints
        with log.span("streaming.checkpoint.capture") as span:
            checkpoint = engine.checkpoint()
        taken["capture"].append(span["end"] - span["start"])
        with log.span("streaming.checkpoint.encode") as span:
            raw = checkpoint.to_bytes()
        taken["encode"].append(span["end"] - span["start"])
        taken["bytes"].append(len(raw))
        with log.span("streaming.checkpoint.restore") as span:
            resumed = StreamingJoinEngine.resume_from(StreamCheckpoint.from_bytes(raw))
        taken["restore"].append(span["end"] - span["start"])
        if self.resumed is not None:
            self.resumed.close()
        self.resumed, self.resumed_at = resumed, position

    def traced_pass(self, pass_id: int) -> None:
        from repro.obs.trace import Tracer

        measure.program_inputs(self.spec, self.inputs)
        log = self.log
        log.pass_id = pass_id
        tracer = Tracer()
        first_span = len(log.spans)
        done = measure.run_pass(
            self.spec, self.inputs, tracer=tracer, span_log=log,
            between=self._checkpoint_round_trip if pass_id == 0 else None,
        )
        self.traced.append(done)
        batch_span_ids = [
            span["id"] for span in log.spans[first_span:]
            if span["name"] == "streaming.engine.batch"
        ]
        self.per_pass_batches.append(_adopt_engine_spans(tracer, log, batch_span_ids))
        self.walls.append(sum(done.seconds) / done.mean_slowdown)

    def finish(self, untraced, metrics) -> bool:
        spec, inputs, log = self.spec, self.inputs, self.log
        timed_from = inputs["timed_from"]
        ok = all(
            p.failed == 0 and p.outputs == untraced[0].outputs for p in self.traced
        )

        # The engine restored from the last checkpoint finishes the stream and
        # must arrive at the same total output as the run that never stopped.
        log.pass_id = -1
        with log.span("streaming.checkpoint.resume_to_end", position=self.resumed_at):
            for batch in inputs["batches"][self.resumed_at + 1:]:
                self.resumed.process_batch(batch)
            total = self.resumed.finish(verify=False).total_output
        ok &= total == sum(inputs["expected"])
        # The checkpoints were taken inside the first traced pass.
        first_slowdown = self.traced[0].mean_slowdown
        for part in ("capture", "encode", "restore"):
            metrics[f"streaming.checkpoint.{part}_ms"] = (
                _mean_ms(self.checkpoints[part]) / first_slowdown)
        metrics["streaming.checkpoint.bytes"] = float(np.mean(self.checkpoints["bytes"]))

        # Engine stages: per batch the median over traced passes, then the mean.
        slowdowns = np.array([p.mean_slowdown for p in self.traced])[:, None]

        def per_batch(key):
            seconds = np.array([
                [batch.get(key, 0.0) for batch in batches[timed_from:]]
                for batches in self.per_pass_batches
            ])
            return np.median(seconds / slowdowns, axis=0)

        engine_batch = per_batch("batch")
        spanned = np.zeros_like(engine_batch)
        for stage, name in ENGINE_STAGES.items():
            seconds = per_batch(stage)
            metrics[name] = _mean_ms(seconds)
            spanned += seconds
        metrics["streaming.engine.unspanned_share"] = float(
            1.0 - spanned.sum() / engine_batch.sum())
        metrics["streaming.engine.batch_ms"] = _mean_ms(
            measure.op_times(self.traced, timed_from))

        # Ratios defined on the untraced op times.
        times = measure.op_times(untraced, timed_from)
        ordered = np.sort(times)
        metrics["streaming.engine.stall_ratio"] = (
            reference.nearest_rank(ordered, 99) / reference.nearest_rank(ordered, 50))
        quarter = len(times) // 4
        metrics["streaming.engine.growth_ratio"] = float(
            times[-quarter:].mean() / times[:quarter].mean())

        result = untraced[0].result
        metrics["streaming.backends.join_ms"] = 1e3 * float(np.median(
            [p.result.join_seconds / p.mean_slowdown for p in untraced]))
        metrics["streaming.policies.repartitions"] = float(result.num_repartitions)
        metrics["streaming.migration.tuples_moved"] = float(result.total_migrated)
        metrics["streaming.window.tuples_evicted"] = float(result.total_evicted)
        metrics["streaming.window.peak_resident_tuples"] = float(
            result.peak_resident_tuples)

        _replay_histogram(spec, inputs, result, log, metrics)
        _replay_state(spec, inputs, result, log, metrics)
        return bool(ok)


def _replay_histogram(spec, inputs, result, log, metrics) -> None:
    """``observe`` and builds run outside every engine span: replay them alone.

    A standalone ``IncrementalHistogram`` observes the same batches and builds
    at the initial build and at every batch the engine repartitioned on.
    """
    from repro import BandJoinCondition, IncrementalHistogram, WeightFunction

    histogram = IncrementalHistogram(spec.machines, WeightFunction(*WEIGHTS))
    condition = BandJoinCondition(beta=float(spec.beta))
    rng = np.random.default_rng(ENGINE_SEED)
    builds_at = {0} | {
        batch.stream_position for batch in result.batches if batch.repartitioned
    }
    # A static policy stops observing once it has built.
    observed = inputs["batches"] if spec.adaptive else inputs["batches"][:1]
    probes = []
    with log.span("replay", layer="streaming.incremental"):
        for position, batch in enumerate(observed):
            if position % measure.PROBE_EVERY["stream"] == 0:
                probes.append(calibrate.probe())
            with log.span("streaming.incremental.observe"):
                histogram.observe(batch, rng)
            if position in builds_at:
                with log.span("streaming.incremental.rebuild"):
                    histogram.build_partitioning(condition, rng)
        probes.append(calibrate.probe())
    slowdown = float(np.mean(probes))
    metrics["streaming.incremental.observe_ms"] = _mean_ms(
        log.seconds("streaming.incremental.observe")) / slowdown
    metrics["streaming.incremental.rebuild_ms"] = _mean_ms(
        log.seconds("streaming.incremental.rebuild")) / slowdown


def _replay_state(spec, inputs, result, log, metrics, repeats: int = 5) -> None:
    """One batch into, and one batch out of, region state of the resident size.

    The state of one side is spread over ``machines`` ``SortedRegionState``
    objects holding the workload's peak resident tuples between them; the
    newest batch is inserted and, under a window, the oldest evicted.
    """
    from repro.streaming import SortedRegionState

    machines = spec.machines
    per_side = result.peak_resident_tuples // 2
    resident_batches = max(1, min(per_side // spec.per_side, len(inputs["arrays"]) - 1))
    history = np.concatenate(
        [keys1 for keys1, _ in inputs["arrays"][: resident_batches + 1]])
    resident = resident_batches * spec.per_side
    index = np.arange(len(history), dtype=np.int64)
    new, old = index[resident:], index[: spec.per_side]
    inserts, evicts, probes = [], [], [calibrate.probe()]
    with log.span("replay", layer="streaming.incremental.state"):
        for _ in range(repeats):
            states = [
                SortedRegionState.from_indices(index[machine:resident:machines], history)
                for machine in range(machines)
            ]
            with log.span("streaming.incremental.insert") as span:
                for machine, state in enumerate(states):
                    mine = new[machine::machines]
                    state.insert(mine, history[mine])
            inserts.append(span["end"] - span["start"])
            if spec.window_batches is not None:
                with log.span("streaming.incremental.evict") as span:
                    for state in states:
                        state.evict(old)
                evicts.append(span["end"] - span["start"])
            probes.append(calibrate.probe())
    slowdown = float(np.mean(probes))
    metrics["streaming.incremental.insert_ms"] = 1e3 * float(np.median(inserts)) / slowdown
    metrics["streaming.incremental.evict_ms"] = (
        1e3 * float(np.median(evicts)) / slowdown if evicts else 0.0)
