"""The measuring protocol: passes over the program, and metrics from them.

One client, closed loop, no threads: the next job or micro-batch is
submitted when the previous one returns.  A run makes a fixed number of
identical passes; every op (one ``CSIOOperator.run`` job or one
``process_batch`` call) is timed in every pass -- inputs and the program's
seed are identical, so op *i* does identical work each pass, which the
harness checks by comparing what every pass returned.  Each pass also takes
the calibration probe (:mod:`calibrate`) at regular slots between ops; an
op's time is the median over the passes of its seconds divided by the
slowdown the probes on either side of it read.

``repro`` is imported inside the functions that call it, so that the input
generators stay numpy-only and a set-up child can time the import.
"""

from __future__ import annotations

import gc
import resource
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import calibrate
import reference
import workloads
from workloads import ENGINE_SEED, WEIGHTS

__all__ = [
    "PassResult",
    "prepare",
    "program_inputs",
    "make_engine",
    "run_pass",
    "warm_up",
    "measure",
    "op_times",
    "per_op_minima",
    "timing_metrics",
    "end_to_end_metrics",
    "PROBE_EVERY",
    "BATCH_PROBE_ROUNDS",
]

#: How many ops lie between two calibration probes in a pass.
PROBE_EVERY = {"batch": 1, "stream": 64}

#: A batch job is a hundred times as long as a stream batch and the heaviest
#: job is a metric of its own, so a batch probe runs the kernels twice.
BATCH_PROBE_ROUNDS = 2

@dataclass
class PassResult:
    """What one pass over a workload's ops returned and how long each op took."""

    seconds: "list[float]" = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failed: int = 0
    #: The calibration probes: one before every ``every`` ops and one at the end.
    probes: "list[float]" = field(default_factory=list)
    every: int = 1
    load_imbalance: float = 0.0
    model_cost: float = 0.0
    #: Stream passes only: the engine's StreamRunResult.
    result: object = None

    @property
    def corrected(self) -> np.ndarray:
        """Per op: its seconds on the reference box (seconds / local slowdown)."""
        return np.array(self.seconds) / calibrate.local_slowdown(
            self.probes, len(self.seconds), self.every
        )

    @property
    def mean_slowdown(self) -> float:
        """How slow the box ran during this pass (1.0 = the reference box)."""
        return float(np.mean(self.probes))


# ----------------------------------------------------------------------
# Inputs and their expected outputs (numpy only)
# ----------------------------------------------------------------------
def prepare(spec, seed: int) -> dict:
    """Generate a workload's inputs and the exact outputs they must give."""
    if spec.kind == "batch":
        jobs = workloads.generate_batch_inputs(spec, seed)
        for job in jobs:
            job["expected"] = reference.band_join_count(
                job["keys1"], job["keys2"], job["beta"]
            )
        return {
            "jobs": jobs,
            "tuples": [len(job["keys1"]) + len(job["keys2"]) for job in jobs],
            "timed_from": 0,
        }
    arrays = workloads.generate_stream_inputs(spec, seed)
    return {
        "arrays": arrays,
        "expected": reference.stream_batch_deltas(
            arrays, spec.beta, spec.window_batches
        ),
        "tuples": [len(keys1) + len(keys2) for keys1, keys2 in arrays],
        "timed_from": spec.warmup_batches,
    }


# ----------------------------------------------------------------------
# Calls into the program
# ----------------------------------------------------------------------
def program_inputs(spec, inputs: dict) -> None:
    """Wrap a stream's arrays in the program's ``MicroBatch`` type (once)."""
    if spec.kind == "stream" and "batches" not in inputs:
        from repro import MicroBatch

        inputs["batches"] = [
            MicroBatch(index, keys1, keys2)
            for index, (keys1, keys2) in enumerate(inputs["arrays"])
        ]


def make_engine(spec, tracer=None):
    """A fresh streaming engine for one pass over ``spec``."""
    from repro import (
        BandJoinCondition,
        DriftAdaptiveEWHPolicy,
        DriftDetector,
        StaticEWHPolicy,
        StreamingJoinEngine,
        WeightFunction,
    )

    if spec.adaptive:
        policy = DriftAdaptiveEWHPolicy(
            DriftDetector(threshold=1.3, warmup_batches=2, cooldown_batches=16)
        )
    else:
        policy = StaticEWHPolicy()
    return StreamingJoinEngine(
        spec.machines,
        BandJoinCondition(beta=float(spec.beta)),
        WeightFunction(*WEIGHTS),
        policy=policy,
        window=spec.window_batches and f"batches:{spec.window_batches}",
        seed=ENGINE_SEED,
        tracer=tracer,
    )


def _batch_pass(jobs: "list[dict]") -> PassResult:
    from repro import BandJoinCondition, CSIOOperator, WeightFunction

    weights = WeightFunction(*WEIGHTS)
    done = PassResult()
    imbalances = []
    for job in jobs:
        done.probes.append(calibrate.probe(BATCH_PROBE_ROUNDS))
        operator = CSIOOperator(job["machines"])
        condition = BandJoinCondition(beta=float(job["beta"]))
        rng = np.random.default_rng(ENGINE_SEED)
        start = perf_counter()
        try:
            result = operator.run(
                job["keys1"], job["keys2"], condition, weights,
                rng=rng, expected_output=job["expected"],
            )
        except Exception:  # an op that raises is a failed op, not a dropped one
            done.seconds.append(perf_counter() - start)
            traceback.print_exc()
            done.outputs.append(None)
            done.failed += 1
            continue
        done.seconds.append(perf_counter() - start)
        machine = result.execution.machine_weights(weights)
        imbalance = float(machine.max() / machine.mean())
        done.outputs.append((result.total_output, result.total_cost, imbalance))
        done.failed += result.total_output != job["expected"]
        imbalances.append(imbalance)
        done.model_cost += result.total_cost
    done.probes.append(calibrate.probe(BATCH_PROBE_ROUNDS))
    done.load_imbalance = float(np.mean(imbalances)) if imbalances else 0.0
    return done


def _stream_pass(spec, inputs: dict, tracer=None, span_log=None, between=None) -> PassResult:
    """One engine over all batches; ``between(engine, position)`` runs untimed."""
    batches, expected = inputs["batches"], inputs["expected"]
    done = PassResult(every=PROBE_EVERY["stream"])
    engine = make_engine(spec, tracer)
    engine.start()
    try:
        for position, batch in enumerate(batches):
            if position % done.every == 0:
                done.probes.append(calibrate.probe())
            if span_log is None:
                start = perf_counter()
                metrics = engine.process_batch(batch)
                done.seconds.append(perf_counter() - start)
            else:
                with span_log.span("streaming.engine.batch", position=position) as span:
                    metrics = engine.process_batch(batch)
                done.seconds.append(span["end"] - span["start"])
            done.outputs.append(metrics.output_delta)
            done.failed += metrics.output_delta != expected[position]
            if between is not None:
                between(engine, position)
        done.probes.append(calibrate.probe())
        done.result = engine.finish(verify=False)
    except Exception:  # the engine is unusable: every remaining op failed
        traceback.print_exc()
        engine.close()
        done.failed += len(batches) - len(done.outputs)
        done.outputs += [None] * (len(batches) - len(done.outputs))
        done.seconds += [0.0] * (len(batches) - len(done.seconds))
        done.probes += [1.0] * ((len(batches) - 1) // done.every + 2 - len(done.probes))
        return done
    done.model_cost = float(done.result.max_machine_load)
    done.load_imbalance = float(done.result.load_imbalance)
    return done


def run_pass(spec, inputs: dict, **stream_options) -> PassResult:
    """One pass with the collector off, so a collection lands in no op."""
    gc.collect()
    gc.disable()
    try:
        if spec.kind == "batch":
            return _batch_pass(inputs["jobs"])
        return _stream_pass(spec, inputs, **stream_options)
    finally:
        gc.enable()


def warm_up(spec, inputs: dict) -> None:
    """What a cold start pays before the first timed op (timed by set-up children).

    Batch: the smallest job once.  Stream: ``start()`` plus the warm-up
    batches, which contain the initial EWH build.
    """
    program_inputs(spec, inputs)
    if spec.kind == "batch":
        smallest = min(range(len(inputs["jobs"])), key=lambda i: inputs["tuples"][i])
        _batch_pass([inputs["jobs"][smallest]])
        return
    engine = make_engine(spec)
    engine.start()
    for batch in inputs["batches"][: spec.warmup_batches]:
        engine.process_batch(batch)
    engine.close()


# ----------------------------------------------------------------------
# A measured run
# ----------------------------------------------------------------------
def measure(spec, inputs: dict, passes: int, before_pass=None) -> dict:
    """Make ``passes`` identical passes; return them with the checks applied.

    ``before_pass(i)`` runs untimed before pass ``i`` (set-up children, traced
    passes): work that should sample the same stretch of time as the passes.
    """
    program_inputs(spec, inputs)
    done = []
    peak_rss_mb = 0.0
    for index in range(passes):
        if before_pass is not None:
            before_pass(index)
        done.append(run_pass(spec, inputs))
        if len(done) == 1:
            # Later passes only add allocator fragmentation.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "passes": done,
        "peak_rss_mb": peak_rss_mb,
        "attempted": sum(len(p.outputs) for p in done),
        "failed": sum(p.failed for p in done),
        "passes_equal": all(p.outputs == done[0].outputs for p in done[1:]),
    }


def op_times(done: "list[PassResult]", timed_from: int) -> np.ndarray:
    """Per timed op: the median over the passes of seconds / local slowdown."""
    return np.median([p.corrected for p in done], axis=0)[timed_from:]


def per_op_minima(done: "list[PassResult]", timed_from: int) -> np.ndarray:
    """Per timed op: the minimum over the passes of its seconds as the clock read them.

    ISSUE 14's estimator.  Reported next to the metrics (``# detail``) so that
    both estimators can be compared on the same passes; see the README.
    """
    return np.min([p.seconds for p in done], axis=0)[timed_from:]


def timing_metrics(inputs: dict, times: np.ndarray) -> dict:
    """Throughput from the sum of one vector of op times, percentiles by nearest rank."""
    times = np.sort(times)
    return {
        "tuples_per_s": float(sum(inputs["tuples"][inputs["timed_from"]:]) / times.sum()),
        "op_p50_ms": 1e3 * reference.nearest_rank(times, 50),
        "op_p99_ms": 1e3 * reference.nearest_rank(times, 99),
    }


def end_to_end_metrics(inputs: dict, run: dict, setup_s: float) -> dict:
    """The seven end-to-end metrics; every op timing from the one vector of op times."""
    first = run["passes"][0]
    return {
        "setup_s": setup_s,
        **timing_metrics(inputs, op_times(run["passes"], inputs["timed_from"])),
        "peak_rss_mb": run["peak_rss_mb"],
        "load_imbalance": first.load_imbalance,
        "model_cost": first.model_cost,
    }
