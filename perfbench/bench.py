"""Measurement, checks and reporting for the workloads in
``workloads.py``; ``run.py`` is the command-line entry point."""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import scipy

import layertrace
from repro.obs.manifest import build_manifest, write_manifest
from repro.obs.metrics import counter, gauge
from workloads import WORKLOADS, Pass, Workload

#: Set-ups a run times at least, spread over its passes, so
#: ``setup_s`` is a median.
MIN_SETUPS = 16
#: Samples a p95 needs, so that ten lie beyond it.
P95_SAMPLES = 200
#: Share of a traced pass the layer spans must cover.
MIN_COVERED = 0.9

END_TO_END = {"setup_s": "s", "link_s": "s", "f1": "ratio",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "synth.build_s": "s", "synth.messages_per_s": "1/s",
    "forums.load_s": "s", "textproc.polish_s": "s",
    "textproc.messages_per_s": "1/s", "textproc.kept_frac": "ratio",
    "documents.refine_s": "s", "documents.aliases_kept": "count",
    "linker.fit_s": "s", "linker.fit_docs_per_s": "1/s",
    "kattribution.reduce_s": "s", "kattribution.ms_per_unknown": "ms",
    "kattribution.calls": "count", "kattribution.recall_at_k": "ratio",
    "linker.restage_s": "s", "linker.pairs_per_s": "1/s",
    "linker.accept_frac": "ratio", "cache.hit_frac": "ratio",
    "cache.mb": "MB", "snapshot.save_s": "s", "snapshot.load_s": "s",
    "snapshot.bytes_per_alias": "B/alias", "incremental.add_s": "s",
    "incremental.ms_per_added_alias": "ms",
    "trace.covered_frac": "ratio", "trace.overhead_frac": "ratio",
    "index_build_s": "s", "cold_start_s": "s", "query_p50_ms": "ms",
    "query_p95_ms": "ms", "add_p50_ms": "ms", "add_p95_ms": "ms",
}


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _tail_short(passes: Sequence[Pass]) -> bool:
    """Whether a p95 timing of *passes* has samples, but fewer than
    :data:`P95_SAMPLES`."""
    return any(0 < sum(len(p.phases.get(name, ())) for p in passes)
               < P95_SAMPLES for name in ("query_ms", "add_ms"))


def _p95(values: Sequence[float]) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=20)[-1]


def score(passes: Sequence[Pass]) -> Dict[str, float]:
    """F1 of the accepted pairs, top-1 recall of every answer and top-1
    recall of the unknowns whose match arrived through ``add_known``,
    pooled over *passes*."""
    hits = top1 = accepted = planted = added_top1 = added = 0
    for p in passes:
        true_pairs = set(p.truth.items())
        found = set(p.matches) & true_pairs
        hits += len(p.accepted & true_pairs)
        top1 += len(found)
        accepted += len(p.accepted)
        planted += len(true_pairs)
        added_top1 += sum(u in p.via_add for u, _ in found)
        added += len(p.via_add)
    return {"f1": 2.0 * hits / (accepted + planted)
            if accepted + planted else 0.0,
            "top1_recall": top1 / planted if planted else 1.0,
            "via_add_recall": added_top1 / added if added else 1.0}


def check_pass(p: Pass, checks: List[str]) -> None:
    """Every submitted unknown got exactly one answer, failed or was
    dropped by refinement, and repeated requests accepted the same
    pairs."""
    if p.answered + p.failed + p.dropped != p.attempted:
        checks.append(f"{p.answered} answers + {p.failed} failed + "
                      f"{p.dropped} dropped != {p.attempted} attempted")
    if len({u for u, _ in p.matches}) != len(p.matches):
        checks.append("an unknown was answered twice")
    if not p.repeats_agree:
        checks.append("a repeated request accepted other pairs")


def check_quality(workload: Workload, passes: Sequence[Pass],
                  checks: List[str]) -> Dict[str, float]:
    """Fail when top-1 recall of all true pairs, or of those only the
    grown index holds, falls below the workload's ``min_recall``."""
    quality = score(passes)
    for name in ("top1_recall", "via_add_recall"):
        if quality[name] < workload.min_recall:
            checks.append(f"{name} {quality[name]:.3f} < "
                          f"{workload.min_recall}")
    return quality


def measure(workload: Workload, seconds: float,
            ) -> Tuple[List[float], List[Pass]]:
    """Set up and run passes until *seconds* of passes were measured
    and the workload's ``min_passes`` ran.  After each pass, extra
    set-ups are timed until their count keeps pace with the measured
    share of *seconds*, so :data:`MIN_SETUPS` are spread over the run
    instead of timed back to back."""
    setups: List[float] = []
    passes: List[Pass] = []
    measured = 0.0

    def timed_setup(index: int) -> Any:
        start = time.perf_counter()
        state = workload.setup(index)
        setups.append(time.perf_counter() - start)
        return state

    while measured < seconds or len(passes) < workload.min_passes:
        state = timed_setup(len(passes))
        passes.append(workload.run(state))
        measured += passes[-1].wall_s
        # Free the state now, so the next set-up's peak memory does not
        # depend on when the garbage collector runs.
        del state
        gc.collect()
        while len(setups) < MIN_SETUPS * min(1.0, measured / seconds):
            timed_setup(len(setups))
            gc.collect()
    return setups, passes


def phase_metrics(passes: Sequence[Pass]) -> Dict[str, float]:
    """Workload-specific timings of untraced passes (0 when the
    workload has no such phase)."""
    def samples(name: str) -> List[float]:
        return [v for p in passes for v in p.phases.get(name, ())]

    return {
        "index_build_s": _median(samples("index_build_s")),
        "cold_start_s": _median(samples("cold_start_s")),
        "query_p50_ms": _median(samples("query_ms")),
        "query_p95_ms": _p95(samples("query_ms")),
        "add_p50_ms": _median(samples("add_ms")),
        "add_p95_ms": _p95(samples("add_ms")),
    }


def end_to_end(workload: Workload, seconds: float, checks: List[str]):
    setups, passes = measure(workload, seconds)
    # Pass i and pass i + min_passes link the same inputs.
    for i, p in enumerate(passes):
        check_pass(p, checks)
        if p.accepted != passes[i % workload.min_passes].accepted:
            checks.append(f"pass {i} accepted other pairs than pass "
                          f"{i % workload.min_passes}")
    quality = check_quality(workload, passes[:workload.min_passes],
                            checks)
    values = {
        "setup_s": _median(setups),
        "link_s": _median([s for p in passes for s in p.link_s]),
        "f1": quality["f1"],
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"setups": len(setups), "passes": len(passes),
             "link_requests": sum(len(p.link_s) for p in passes),
             "top1_recall": quality["top1_recall"],
             "via_add_recall": quality["via_add_recall"],
             **phase_metrics(passes)}
    return values, passes, notes


def _cache_counters() -> Tuple[int, int, float]:
    return (counter("profile_cache_hits_total").value,
            counter("profile_cache_misses_total").value,
            gauge("profile_cache_bytes").value)


def traced_run(workload: Workload, seconds: float, checks: List[str]):
    """Alternate an untraced pass with a traced one, each after its own
    set-up, until *seconds* of passes ran (at least one pair) and the
    untraced passes hold :data:`P95_SAMPLES` of each p95 timing."""
    tracer = layertrace.LayerTracer()
    plain_passes: List[Pass] = []
    traced_passes: List[Pass] = []
    cycles: List[Dict[str, float]] = []
    measured = 0.0
    while not cycles or measured < seconds or _tail_short(plain_passes):
        i = len(cycles)
        state = workload.setup(i)
        plain = workload.run(state)
        del state
        gc.collect()
        layertrace.install(tracer, lambda: workload.truth)
        try:
            tracer.run_id = f"setup{i}"
            state = workload.setup(i)
            tracer.run_id = f"pass{i}"
            before = _cache_counters()
            start = time.perf_counter()
            traced = workload.run(state)
            end = time.perf_counter()
            after = _cache_counters()
        finally:
            tracer.restore()
        del state
        gc.collect()
        for p in (plain, traced):
            check_pass(p, checks)
        if traced.accepted != plain.accepted:
            checks.append("traced run accepted other pairs than the "
                          "untraced run")
        covered = layertrace.covered(tracer.of_run(f"pass{i}"),
                                     start, end) / (end - start)
        if covered < MIN_COVERED:
            checks.append(f"layer spans cover {covered:.3f} < "
                          f"{MIN_COVERED} of the traced pass")
        hits, misses = after[0] - before[0], after[1] - before[1]
        cycle = layertrace.layer_metrics(tracer.spans,
                                         (f"setup{i}", f"pass{i}"))
        cycle.update({
            "cache.hit_frac": hits / (hits + misses)
            if hits + misses else 0.0,
            # The gauge holds the bytes of the cache that grew last.
            "cache.mb": after[2] / 2 ** 20,
            "trace.covered_frac": covered,
            "trace.overhead_frac": traced.wall_s / plain.wall_s - 1.0,
        })
        cycles.append(cycle)
        plain_passes.append(plain)
        traced_passes.append(traced)
        measured += plain.wall_s + traced.wall_s
    check_quality(workload, plain_passes, checks)
    values = {name: _median([c[name] for c in cycles])
              for name in cycles[0]}
    values.update(phase_metrics(plain_passes))
    return values, plain_passes + traced_passes, {"cycles": len(cycles)}, \
        tracer


def _print_human(title: str, metrics: Dict[str, Dict[str, Any]],
                 notes: Dict[str, float]) -> None:
    print(title)
    for name, entry in metrics.items():
        print(f"  {name:<34} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in notes.items():
        print(f"  {name:<34} {value:>14.6g}")


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        root: Path, argv: List[str], ignored_env: Dict[str, str]) -> int:
    if workload_name not in WORKLOADS:
        print(f"error: unknown workload {workload_name!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = root / ".perfbench_runs" / (
        f"{workload_name}-seed{seed}-trace{int(trace)}")
    workdir = outdir / "work"
    shutil.rmtree(outdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[workload_name](seed, workdir)
    checks: List[str] = []
    started = time.perf_counter()
    try:
        if trace:
            values, passes, notes, tracer = traced_run(
                workload, seconds, checks)
            tracer.write(outdir / "spans.jsonl")
            units = PER_LAYER
            title = "per-layer metrics (traced run)"
        else:
            values, passes, notes = end_to_end(workload, seconds, checks)
            units = END_TO_END
            title = "end-to-end metrics (untraced run)"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    dropped = sum(p.dropped for p in passes)
    result = {"correct": not checks, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    manifest = build_manifest(
        command="perfbench", argv=argv, seed=seed,
        config={"workload": workload_name, "trace": int(trace),
                "seconds": seconds, **workload.sizes},
        elapsed_s=time.perf_counter() - started,
        extra={"nproc": os.cpu_count(), "scipy": scipy.__version__,
               "blas_env": {k: os.environ.get(k) for k in (
                   "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                   "MKL_NUM_THREADS")},
               "ignored_env": ignored_env, "notes": notes})
    (outdir / "result.json").write_text(json.dumps(result, indent=2))
    write_manifest(outdir / "result.manifest.json", manifest)

    _print_human(f"{workload_name} seed {seed}: {title}", metrics, notes)
    failed_frac = failed / attempted if attempted else 0.0
    print(f"  attempted {attempted}  failed {failed}  "
          f"failed_frac {failed_frac:.6g}  dropped by refinement "
          f"{dropped}")
    for message in checks:
        print(f"CHECK FAILED: {message}")
    print(json.dumps(result))
    return 0 if not checks else 1
