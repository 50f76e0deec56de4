#!/usr/bin/env python3
"""Bench regression gate for the BENCH_micro_*.json artifacts.

Compares a freshly measured bench JSON (written by `bench_micro_fabric
--json-out` / `bench_micro_kernels --json-out`) against the committed
baseline in bench/baselines/, and fails when a throughput metric regressed
by more than --max-regression (default 20%).

Rules:
  * Only higher-is-better keys are gated (throughput-style suffixes:
    *_per_s, gbps_*, speedup, *hit_rate). Other keys are informational.
  * A row present in the baseline but missing from the current run is an
    error (a silently dropped workload is not a pass).
  * New rows/keys in the current run are allowed (the baseline is updated
    by committing the new artifact, not by editing this script).
  * Keys listed in ABSOLUTE_FLOORS are additionally checked against a
    machine-independent floor — ratios like the pool hit rate must hold on
    any host, so they are gated even when the baseline machine was slower.

Exit status: 0 clean, 1 regression(s), 2 usage/IO error.
"""

import argparse
import json
import sys
from pathlib import Path

GATED_SUFFIXES = ("_per_s", "hit_rate", "speedup")
GATED_PREFIXES = ("gbps_",)

# label -> key -> floor value (checked as current >= floor, no tolerance).
ABSOLUTE_FLOORS = {
    "ring_allreduce_w8_1m": {
        # Steady-state collectives must be allocation-free: every hop buffer
        # comes from the pool once it is warm.
        "pool_hit_rate": 0.9,
    },
    # Every lockstep protocol run in bench_collective_policy has to end at
    # or below its loss target (reached_target is 1.0/0.0 and, being a pure
    # function of the seeds under lockstep, machine-independent).
    **{f"train_{proto}_none": {"reached_target": 1.0}
       for proto in ("horovod", "rna")},
    # The 1000-worker lockstep run (bench_scale) must actually finish every
    # scheduled round.
    "scale_w1000": {"completed": 1.0},
    # Streaming data plane (bench_data): length-bucketed batching must keep
    # widening the per-batch total-length spread vs uniform sampling — the
    # Figure 2(b) load imbalance the paper's whole mitigation targets. The
    # CV ratio is a pure function of the seeds, so it is machine-independent.
    "fig2_bucketing": {"cv_ratio_bucketed_vs_uniform": 2.0},
    # world > Size(): every overflow rank must fall back to the shared view
    # (400 of the 1000 ranks in this configuration) instead of crashing or
    # silently training on nothing.
    "shard_view_overflow_w1000": {"fallback_workers": 400.0},
}

# Lower-is-better keys gated as current <= ceiling.
ABSOLUTE_CEILINGS = {
    "ring_allreduce_w8_1m": {
        "pool_steady_misses": 0.0,
    },
    # Steady-state training iterations run entirely out of the compute arena
    # (bench_micro_nn measures with counting operator new/delete): any heap
    # allocation after warm-up is a regression regardless of throughput.
    **{f"train_step_{kind}": {"steady_heap_allocs": 0.0}
       for kind in ("mlp", "lstm", "attention", "lstm_imbalance")},
    # LSTM evaluation runs forward-only and keeps one step of state, so a
    # 96-sample lstm-imbalance slice needs 71.5 KiB of arena scratch. The
    # unrolled training forward needs 607 KiB for the same slice; a ceiling
    # between the two catches evaluation falling back to it. The figure is a
    # pure function of the slice's shapes, so it holds on any host.
    "eval_lstm_96": {"arena_high_water_kb": 128.0},
    # MLP evaluation runs forward-only through two buffers of rows × widest
    # hidden layer: a 96-sample mixed-hetero slice needs 39 KiB, inside the
    # 52 KiB a batch-16 training step pins. The training forward's caches
    # need 207 KiB for the same slice.
    "eval_mlp_96": {"arena_high_water_kb": 64.0},
    # Wire bytes per round are a deterministic function of the hop graph
    # (world 8, 256k floats, 2*(w-1)*w raw fp32 chunks per round), so the
    # ring is held to its exact payload: any framing, header or extra hop
    # trips the gate.
    "comp_none_w8_256k": {"wire_bytes_per_round": 14680064.0},
    # Zero-copy sharding (bench_data): a shard view must alias the dataset's
    # sample tensors, never copy them — at world=1000 a single copied view
    # would replicate the dataset ×1000 (the bug this ceiling pins out).
    "shard_view_w1000": {"sample_bytes_copied": 0.0},
    "shard_view_overflow_w1000": {"sample_bytes_copied": 0.0},
    # Scale-out flatness (bench_scale): controller messages per worker per
    # round at world=1000 relative to world=10. The count is a property of
    # the dispatch protocol (not of the machine), so growth past 2x means a
    # controller started doing per-world work per worker — the O(1) claim
    # the per-group controllers and their ready tallies exist for.
    "scale_w1000": {"controller_msgs_flatness_vs_w10": 2.0},
}


def is_gated(key):
    return key.endswith(GATED_SUFFIXES) or key.startswith(GATED_PREFIXES)


def load_rows(path):
    data = json.loads(Path(path).read_text())
    rows = {}
    for row in data.get("rows", []):
        label = row.get("label")
        rows[label] = {k: v for k, v in row.items() if k != "label"}
    return data.get("bench", "?"), rows


def compare(baseline_path, current_path, max_regression):
    problems = []
    bench_name, base_rows = load_rows(baseline_path)
    _, cur_rows = load_rows(current_path)
    checked = 0

    for label, base_values in sorted(base_rows.items()):
        if label not in cur_rows:
            problems.append(f"{bench_name}/{label}: row missing from current run")
            continue
        cur_values = cur_rows[label]
        for key, base in sorted(base_values.items()):
            if not is_gated(key) or key not in cur_values:
                continue
            cur = cur_values[key]
            checked += 1
            if base > 0 and cur < base * (1.0 - max_regression):
                problems.append(
                    f"{bench_name}/{label}/{key}: {cur:.4g} is "
                    f"{(1.0 - cur / base) * 100.0:.1f}% below baseline "
                    f"{base:.4g} (tolerance {max_regression * 100.0:.0f}%)")

    for label, floors in ABSOLUTE_FLOORS.items():
        if label not in cur_rows:
            continue
        for key, floor in floors.items():
            if key not in cur_rows[label]:
                problems.append(f"{bench_name}/{label}: missing floor key {key}")
                continue
            checked += 1
            if cur_rows[label][key] < floor:
                problems.append(
                    f"{bench_name}/{label}/{key}: {cur_rows[label][key]:.4g} "
                    f"below required floor {floor:.4g}")
    for label, ceilings in ABSOLUTE_CEILINGS.items():
        if label not in cur_rows:
            continue
        for key, ceiling in ceilings.items():
            if key not in cur_rows[label]:
                problems.append(
                    f"{bench_name}/{label}: missing ceiling key {key}")
                continue
            checked += 1
            if cur_rows[label][key] > ceiling:
                problems.append(
                    f"{bench_name}/{label}/{key}: {cur_rows[label][key]:.4g} "
                    f"above allowed ceiling {ceiling:.4g}")
    return bench_name, checked, problems


# ---------------------------------------------------------------------------
# Self-test

BASE_SAMPLE = {
    "bench": "micro_test",
    "rows": [
        {"label": "ring_allreduce_w8_1m", "elems_per_s": 1e8,
         "pool_hit_rate": 0.99, "pool_steady_misses": 0.0},
        {"label": "pingpong", "roundtrips_per_s": 5000.0, "note_count": 3.0},
        {"label": "train_step_mlp", "steps_per_s": 3000.0,
         "steady_heap_allocs": 0.0},
        {"label": "comp_none_w8_256k", "time_per_round_s": 0.003,
         "wire_bytes_per_round": 14680064.0},
        {"label": "train_rna_none", "final_loss": 0.03,
         "reached_target": 1.0},
        {"label": "scale_w1000", "completed": 1.0,
         "controller_msgs_flatness_vs_w10": 1.2},
        {"label": "shard_view_w1000", "sample_bytes_copied": 0.0,
         "index_bytes": 32000.0},
        {"label": "fig2_bucketing", "batch_len_cv_uniform": 0.14,
         "batch_len_cv_bucketed": 0.49,
         "cv_ratio_bucketed_vs_uniform": 3.6},
        {"label": "eval_lstm_96", "evals_per_s": 1000.0,
         "arena_high_water_kb": 100.0, "steady_heap_allocs": 0.0},
        {"label": "eval_mlp_96", "evals_per_s": 6000.0,
         "arena_high_water_kb": 45.0, "steady_heap_allocs": 0.0},
    ],
}


def self_test():
    import copy
    import tempfile

    failures = []

    def run(mutate, expect_problems):
        cur = copy.deepcopy(BASE_SAMPLE)
        mutate(cur)
        with tempfile.TemporaryDirectory() as tmp:
            bp = Path(tmp) / "base.json"
            cp = Path(tmp) / "cur.json"
            bp.write_text(json.dumps(BASE_SAMPLE))
            cp.write_text(json.dumps(cur))
            _, _, problems = compare(bp, cp, 0.20)
        ok = bool(problems) == expect_problems
        if not ok:
            failures.append(
                f"expected problems={expect_problems}, got: {problems}")

    # Identical run passes.
    run(lambda c: None, expect_problems=False)
    # 10% dip is within the 20% tolerance.
    run(lambda c: c["rows"][0].__setitem__("elems_per_s", 0.9e8),
        expect_problems=False)
    # 30% dip fails.
    run(lambda c: c["rows"][0].__setitem__("elems_per_s", 0.7e8),
        expect_problems=True)
    # Non-gated keys never fail.
    run(lambda c: c["rows"][1].__setitem__("note_count", 0.0),
        expect_problems=False)
    # A dropped row fails.
    run(lambda c: c["rows"].pop(1), expect_problems=True)
    # Hit-rate floor is absolute: 0.5 fails even though baseline-relative
    # tolerance would allow it against a 0.99 baseline at 60% tolerance.
    run(lambda c: c["rows"][0].__setitem__("pool_hit_rate", 0.5),
        expect_problems=True)
    # Steady-state misses must stay at zero.
    run(lambda c: c["rows"][0].__setitem__("pool_steady_misses", 4.0),
        expect_problems=True)
    # An improvement passes.
    run(lambda c: c["rows"][0].__setitem__("elems_per_s", 2e8),
        expect_problems=False)
    # A single steady-state heap allocation in a train step fails, even
    # though the relative gate would never notice a count of 1.0.
    run(lambda c: c["rows"][2].__setitem__("steady_heap_allocs", 1.0),
        expect_problems=True)
    # Dropping the allocation counter from the row fails (the ceiling key
    # is required, not optional).
    run(lambda c: c["rows"][2].pop("steady_heap_allocs"),
        expect_problems=True)
    # A single extra wire byte per round breaks the raw ring's ceiling —
    # the payload budget is exact, not throughput-relative.
    run(lambda c: c["rows"][3].__setitem__("wire_bytes_per_round",
                                           14680065.0),
        expect_problems=True)
    # A lockstep training run that misses its loss target fails outright.
    run(lambda c: c["rows"][4].__setitem__("reached_target", 0.0),
        expect_problems=True)
    # Controller messages per worker-round growing past 2x of the world=10
    # run means per-world dispatch crept into the controller.
    run(lambda c: c["rows"][5].__setitem__(
            "controller_msgs_flatness_vs_w10", 2.5),
        expect_problems=True)
    # Flatness below the ceiling passes: the ratio is exactly 1.0 under
    # lockstep today, but the ceiling leaves room for protocol changes
    # that legitimately add a bounded per-round message or two.
    run(lambda c: c["rows"][5].__setitem__(
            "controller_msgs_flatness_vs_w10", 1.4),
        expect_problems=False)
    # A 1000-worker run that stops short of its scheduled rounds fails.
    run(lambda c: c["rows"][5].__setitem__("completed", 0.0),
        expect_problems=True)
    # A single byte of shard-sample copying at world=1000 breaks the
    # zero-copy ceiling (one copied view replicates the dataset ×world).
    run(lambda c: c["rows"][6].__setitem__("sample_bytes_copied", 768.0),
        expect_problems=True)
    # Index bytes are informational: per-worker bookkeeping may grow
    # without tripping any gate.
    run(lambda c: c["rows"][6].__setitem__("index_bytes", 64000.0),
        expect_problems=False)
    # Bucketed batching collapsing toward uniform's spread (ratio < 2)
    # means batches stopped tracking the length distribution — the Fig. 2
    # imbalance the data plane must reproduce.
    run(lambda c: c["rows"][7].__setitem__(
            "cv_ratio_bucketed_vs_uniform", 1.3),
        expect_problems=True)
    # The ratio floor is absolute, not baseline-relative: 2.5 passes even
    # though it is >20% below the 3.6 baseline.
    run(lambda c: c["rows"][7].__setitem__(
            "cv_ratio_bucketed_vs_uniform", 2.5),
        expect_problems=False)
    # An LSTM evaluation slice back at the unrolled forward's scratch
    # (640 KiB) breaks the eval ceiling, even with throughput unchanged.
    run(lambda c: c["rows"][8].__setitem__("arena_high_water_kb", 640.0),
        expect_problems=True)
    # Exactly at the ceiling passes: the bound is inclusive.
    run(lambda c: c["rows"][8].__setitem__("arena_high_water_kb", 128.0),
        expect_problems=False)
    # An MLP evaluation slice back on the training forward (213 KiB of
    # layer caches) breaks its ceiling.
    run(lambda c: c["rows"][9].__setitem__("arena_high_water_kb", 213.0),
        expect_problems=True)

    if failures:
        print("bench_gate self-test FAILED:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("bench_gate self-test OK (22 cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path,
                        help="committed baseline BENCH_*.json")
    parser.add_argument("--current", type=Path,
                        help="freshly measured BENCH_*.json")
    parser.add_argument("--max-regression", type=float, default=0.20,
                        help="allowed fractional throughput drop "
                             "(default 0.20)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own regression tests")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.current:
        parser.error("--baseline and --current are required")
    for p in (args.baseline, args.current):
        if not p.is_file():
            print(f"bench_gate: error: {p} not found", file=sys.stderr)
            return 2

    bench_name, checked, problems = compare(args.baseline, args.current,
                                            args.max_regression)
    for p in problems:
        print(f"bench_gate: {p}")
    if problems:
        print(f"bench_gate: FAILED ({len(problems)} problem(s), "
              f"{checked} metrics checked)")
        return 1
    print(f"bench_gate: OK ({bench_name}: {checked} metrics within "
          f"{args.max_regression * 100.0:.0f}% of baseline)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
