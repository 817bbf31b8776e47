"""convspeech benchmark: one workload, one seed, one closed measurement loop.

    python3 bench/run.py --workload decode_peaky --seed 1 --seconds 30 --trace 0

Workloads: train, decode_peaky, decode_flat (see bench/README.md). With
--trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 the same items run once untraced and once traced, and
the last line holds the per-layer metrics. Everything else a run knows (the
environment, the base of every ratio, the workload's own figures, the
per-layer table) is printed above that line and saved under bench/out/.
A failed output check prints {"correct": false, ...} without metrics and
exits with status 1; missing sources or a changed checkpoint exit with 2.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time

import bootstrap

SETUP_REPEATS = 5
WORKLOADS = ("train", "decode_peaky", "decode_flat")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    return parser.parse_args(argv)


def summary(workload, outcome, setup_ref_s, setup_raw_s) -> dict:
    """End-to-end figures, at reference speed and raw.

    The median is per workload unit: per utterance-epoch for train, per
    utterance scaled to the manifest's mean length for decoding. The tail is
    per item as it came, with its percentile and sample count.
    """
    from workloads import percentile_with_ten_beyond

    def figures(item_s, setup_s):
        scaled = [1000.0 * s * workload.per_unit(r) for s, (_, r) in zip(item_s, outcome.results)]
        return {"setup_s": statistics.median(setup_s),
                "utt_per_s": outcome.units / sum(item_s),
                "utt_ms_p50": statistics.median(scaled),
                "item_ms_tail": percentile_with_ten_beyond(
                    [1000.0 * s / workload.units_per_item for s in item_s])}

    return {**figures(outcome.ref_s, setup_ref_s), "raw": figures(outcome.raw_s, setup_raw_s)}


def per_layer(layers: dict, counts: dict, units: int, overhead_pct: float) -> dict:
    """Per-layer figures per utterance (per utterance-epoch for train)."""

    def row(name):
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for layer in ("audio_io.read_wav", "frontend.forward", "acoustic.forward",
                  "frontend.backward", "acoustic.backward", "criterion.loss_and_gradients",
                  "criterion.loss", "optim.step", "gcnn.forward", "gcnn.backward",
                  "lm.score", "decoder.merge"):
        put(f"{layer}.calls", row(layer)["calls"] / units, "calls/utt")
        put(f"{layer}.ms", 1000.0 * row(layer)["self_s"] / units, "ms/utt")
    put("audio_io.read_wav.bytes", row("audio_io.read_wav").get("bytes", 0) / units, "B/utt")
    hits = counts.get("gcnn.cache_hits", 0)
    lookups = hits + counts.get("gcnn.cache_misses", 0)
    put("gcnn.cache_lookups", lookups / units, "lookups/utt")
    put("gcnn.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    put("gcnn.train_gcnn.self_ms", 1000.0 * row("gcnn.train_gcnn")["self_s"] / units, "ms/utt")
    decode, merge, prune = row("decoder.decode"), row("decoder.merge"), row("decoder.prune")
    put("decoder.decode.calls", decode["calls"] / units, "calls/utt")
    put("decoder.decode.ms", 1000.0 * decode["total_s"] / units, "ms/utt")
    put("decoder.frames", decode.get("frames", 0) / units, "frames/utt")
    put("decoder.merge.in", merge.get("in", 0) / units, "hyps/utt")
    put("decoder.merge.out", merge.get("out", 0) / units, "hyps/utt")
    put("decoder.merge_ratio", merge["out"] / merge["in"] if merge.get("in") else 0.0, "ratio")
    put("decoder.prune.ms", 1000.0 * prune["self_s"] / units, "ms/utt")
    put("decoder.prune.out", prune.get("out", 0) / units, "hyps/utt")
    put("decoder.beam_mean", prune["out"] / decode["frames"] if decode.get("frames") else 0.0,
        "hyps/frame")
    put("decoder.expand_self_ms", 1000.0 * decode["self_s"] / units, "ms/utt")
    put("pipeline.self_ms", 1000.0 * (row("pipeline.train_acoustic")["self_s"]
                                      + row("pipeline.emissions")["self_s"]) / units, "ms/utt")
    put("trace.overhead_pct", overhead_pct, "%")
    return metrics


def layer_table(layers: dict, units: int, wall_s: float) -> str:
    lines = [f"{'span':30} {'calls':>8} {'total ms':>10} {'self ms':>10} "
             f"{'self ms/utt':>11} {'self %':>7}"]
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"{name:30} {row['calls']:8d} {1000 * row['total_s']:10.1f} "
                     f"{1000 * row['self_s']:10.1f} {1000 * row['self_s'] / units:11.3f} "
                     f"{100 * row['self_s'] / wall_s:7.2f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.import_convspeech()
    except bootstrap.SourceMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import clock
    import task
    import tracing
    import workloads

    out_dir = bootstrap.BENCH_DIR / "out"
    tag = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace else "")
    work = out_dir / "work" / tag
    record = {"workload": args.workload, "size": args.size, "seconds": args.seconds,
              "trace": args.trace, "env": bootstrap.environment_record(args.seed)}
    ref = clock.Clock()
    setup_raw_s, setup_ref_s = [], []
    try:
        ref.restart()
        for i in range(SETUP_REPEATS):
            workload = workloads.make(args.workload, args.seed, args.size)
            t0 = time.perf_counter()
            workload.setup(workloads.fresh_dir(work / f"setup{i}"))
            setup_raw_s.append(time.perf_counter() - t0)
            setup_ref_s.append(setup_raw_s[-1] * ref.scale())
        outcome = workloads.closed_loop(workload, args.seconds, ref)
        if args.trace:
            tracer = tracing.Tracer()
            tracing.instrument(tracer)
            try:
                extra = {} if args.workload == "train" else \
                    {"lm": tracing.TracedLM(workload.lm, tracer)}
                traced = workloads.closed_loop(
                    workload, math.inf, ref, limit=outcome.attempted,
                    item_scope=lambda i: tracer.item_span("bench.item", i), **extra)
            finally:
                tracer.restore()
        else:
            probe_items = workloads.MEMORY_PROBE_ITEMS[args.workload]
            peak_alloc_mb = workloads.memory_probe(workload, probe_items)
    except task.ChecksumMismatch as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not outcome.ref_s:
        print("bench: no item finished; errors: " + "; ".join(outcome.errors[:5]),
              file=sys.stderr)
        return 1
    figures = summary(workload, outcome, setup_ref_s, setup_raw_s)
    if args.workload != "train":
        outcome.record.update({
            "decode_utt_per_s": figures["raw"]["utt_per_s"],
            "decode_ms_p50": 1000.0 * statistics.median(outcome.raw_s),
            "decode_ms_tail": figures["raw"]["item_ms_tail"]})
    record.update({
        "base": workload.base, "units_per_item": workload.units_per_item,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "fail_frac": outcome.failed / outcome.attempted, "errors": outcome.errors,
        "setup_s_each": setup_raw_s, "end_to_end": figures,
        "kernel_ms_median": statistics.median(ref.kernel_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "workload_metrics": outcome.record,
        "items": {"raw_ms": [1000.0 * s for s in outcome.raw_s],
                  "kernel_ms": outcome.kernel_ms},
    })
    problems = list(outcome.problems)
    if args.trace:
        problems += traced.problems
        layers = tracer.layers()
        overhead = 100.0 * (sum(traced.ref_s) / sum(outcome.ref_s) - 1.0)
        metrics = per_layer(layers, tracer.counts, traced.units, overhead)
        table = layer_table(layers, traced.units, sum(traced.raw_s))
        record["trace"] = {"units": traced.units, "untraced_ref_s": sum(outcome.ref_s),
                           "traced_ref_s": sum(traced.ref_s), "spans": len(tracer.names),
                           "layers": layers, "counts": dict(tracer.counts)}
        out_dir.mkdir(exist_ok=True)
        tracer.write_jsonl(out_dir / f"{tag}.spans.jsonl")
        (out_dir / f"{tag}.layers.txt").write_text(table + "\n")
    else:
        record["peak_alloc_mb"] = peak_alloc_mb
        metrics = {
            "setup_s": {"value": figures["setup_s"], "unit": "s"},
            "utt_per_s": {"value": figures["utt_per_s"], "unit": "utt/s"},
            "utt_ms_p50": {"value": figures["utt_ms_p50"], "unit": "ms"},
            "peak_alloc_mb": {"value": peak_alloc_mb, "unit": "MB"},
        }
    record["problems"] = problems
    record["metrics"] = metrics
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({k: record[k] for k in ("env", "base", "units_per_item")}))
    print(json.dumps({k: record[k] for k in ("end_to_end", "workload_metrics", "fail_frac",
                                             "attempted", "failed", "peak_rss_mb",
                                             "kernel_ms_median")}))
    if args.trace:
        print(table)
    for line in outcome.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": {} if problems else metrics}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
