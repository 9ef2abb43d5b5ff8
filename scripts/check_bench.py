#!/usr/bin/env python3
"""Benchmark regression gate for CI.

Compares fresh benchmark output against the committed baselines in
bench/baselines/ and fails (exit 1) when a metric regressed by more
than the threshold (default 25% — generous enough for shared-runner
noise, tight enough to catch a real slowdown).

  emulator_throughput.json  JSON array; entries matched on (variant,
                            n, chips); higher-is-better metric
                            `limb_ops_per_s`, and higher-is-better
                            `parallel_speedup` only against a
                            baseline entry of the same machine shape
                            (`nproc`, `pool_workers`, `avx512_ifma`):
                            a pool speed-up measured on another shape
                            says nothing about this one.
  compile_time.json         single JSON object; lower-is-better
                            metrics `serial_ms`, `parallel_ms` and
                            `paper_ms` (a cold compile of the
                            N = 64K bootstrap on Cinnamon-4), and
                            higher-is-better `paper_speedup` (that
                            compile at compile_workers = 1 over the
                            pooled one) only against a baseline of
                            the same machine shape.
  serve_plan_cache          written by `serve_demo --bench-json`;
                            gated on *absolute* bounds from the
                            baseline (`steady_compile_ms_p50_max`,
                            `plan_cache_hit_rate_min`) — in steady
                            state the plan cache must make the median
                            compile free and serve most lookups.
  tuner.json                written by `serve_demo --tuner-json`;
                            simulated seconds are deterministic, so
                            the autotuner's decisions (strategy,
                            group, streams) must match the baseline
                            exactly and the tuned plan must never be
                            slower than the default plan.
  oblivious_join.json       written by `bench/oblivious_join`; the
                            simulator is cycle-exact, so every rung's
                            latency, instruction count, and keyswitch
                            traffic — and the kernel's rotation
                            profile — must match the baseline exactly
                            (a drift means the compiled program
                            changed; refresh deliberately).

Usage:
  scripts/check_bench.py --emulator-throughput emulator_throughput.json \
                         --compile-time compile_time.json \
                         --serve-plan-cache serve_bench.json \
                         --tuner tuner.json \
                         [--baseline-dir bench/baselines] \
                         [--threshold 0.25] [--refresh]

--refresh rewrites the baselines from the given current files instead
of checking (use when a PR legitimately shifts performance; commit the
refreshed baselines in the same PR).
"""

import argparse
import json
import os
import sys


def load_json(path):
    with open(path) as f:
        return json.load(f)


def throughput_key(entry):
    return (entry.get("variant", "?"), entry["n"], entry["chips"])


def fmt_key(key):
    variant, n, chips = key
    return f"{variant} n={n} chips={chips}"


SHAPE_FIELDS = ("nproc", "pool_workers", "avx512_ifma")


def machine_shape(entry):
    """The machine shape an entry was measured on (None if unset)."""
    return tuple(entry.get(f) for f in SHAPE_FIELDS)


def fmt_shape(shape):
    return " ".join(f"{f}={v}" for f, v in zip(SHAPE_FIELDS, shape))


def check_speedup(label, field, entry, base, threshold, failures):
    """Higher-is-better pool speed-up `field`, between like machines
    only."""
    shape = machine_shape(entry)
    if shape != machine_shape(base):
        print(f"  [skip] {label} {field}: baseline shape "
              f"{fmt_shape(machine_shape(base))}, current "
              f"{fmt_shape(shape)}")
        return
    cur = entry[field]
    ref = base[field]
    loss = ref / cur - 1.0 if cur > 0 else float("inf")
    status = "FAIL" if loss > threshold else "ok"
    print(f"  [{status}] {label} {field}: {cur:.2f}x vs baseline "
          f"{ref:.2f}x ({fmt_shape(shape)})")
    if loss > threshold:
        failures.append(
            f"{label} {field} {cur:.2f}x fell {loss:.1%} below "
            f"baseline {ref:.2f}x (> {threshold:.0%})")


def check_throughput(current, baseline, threshold, failures):
    """Higher-is-better: fail when baseline/current - 1 > threshold."""
    base_by_key = {throughput_key(e): e for e in baseline}
    for entry in current:
        key = throughput_key(entry)
        base = base_by_key.get(key)
        if base is None:
            print(f"  [new] emulator_throughput {fmt_key(key)} "
                  f"(no baseline; skipped)")
            continue
        cur_rate = entry["limb_ops_per_s"]
        base_rate = base["limb_ops_per_s"]
        if cur_rate <= 0:
            failures.append(
                f"emulator_throughput {fmt_key(key)}: "
                f"non-positive rate {cur_rate}")
            continue
        slowdown = base_rate / cur_rate - 1.0
        status = "FAIL" if slowdown > threshold else "ok"
        print(f"  [{status}] emulator_throughput {fmt_key(key)}: "
              f"{cur_rate:.0f} limb_ops/s vs baseline "
              f"{base_rate:.0f} ({slowdown:+.1%} slowdown)")
        if slowdown > threshold:
            failures.append(
                f"emulator_throughput {fmt_key(key)} regressed "
                f"{slowdown:.1%} (> {threshold:.0%})")
        check_speedup(f"emulator_throughput {fmt_key(key)}",
                      "parallel_speedup", entry, base, threshold,
                      failures)
    for key in base_by_key:
        if key not in {throughput_key(e) for e in current}:
            failures.append(
                f"emulator_throughput {fmt_key(key)}: present in "
                f"baseline but missing from current run")


def check_compile_time(current, baseline, threshold, failures):
    """Lower-is-better: fail when current/baseline - 1 > threshold."""
    for metric in ("serial_ms", "parallel_ms", "paper_ms"):
        cur = current[metric]
        base = baseline[metric]
        if base <= 0:
            continue
        slowdown = cur / base - 1.0
        status = "FAIL" if slowdown > threshold else "ok"
        print(f"  [{status}] compile_time {metric}: {cur:.3f} ms vs "
              f"baseline {base:.3f} ms ({slowdown:+.1%})")
        if slowdown > threshold:
            failures.append(
                f"compile_time {metric} regressed {slowdown:.1%} "
                f"(> {threshold:.0%})")
    if "paper_speedup" in baseline:
        check_speedup("compile_time", "paper_speedup", current, baseline,
                      threshold, failures)


def check_serve_plan_cache(current, baseline, threshold, failures):
    """Absolute bounds: the serving-tier plan cache must keep the
    steady-state median compile free and serve most lookups from
    cache, regardless of machine speed (threshold is unused)."""
    del threshold
    cur = current["serve_plan_cache"]
    p50 = cur["steady_compile_ms_p50"]
    hit_rate = cur["plan_cache_hit_rate"]
    p50_max = baseline["steady_compile_ms_p50_max"]
    hit_min = baseline["plan_cache_hit_rate_min"]

    status = "FAIL" if p50 > p50_max else "ok"
    print(f"  [{status}] serve_plan_cache steady_compile_ms_p50: "
          f"{p50:.3f} ms (max {p50_max:.3f} ms)")
    if p50 > p50_max:
        failures.append(
            f"serve_plan_cache steady_compile_ms_p50 {p50:.3f} ms "
            f"above bound {p50_max:.3f} ms (cache not serving the "
            f"steady state)")

    status = "FAIL" if hit_rate < hit_min else "ok"
    print(f"  [{status}] serve_plan_cache hit rate: {hit_rate:.1%} "
          f"(min {hit_min:.1%}; {cur['plan_cache_hits']}/"
          f"{cur['plan_cache_lookups']} lookups)")
    if hit_rate < hit_min:
        failures.append(
            f"serve_plan_cache hit rate {hit_rate:.1%} below bound "
            f"{hit_min:.1%}")


def check_tuner(current, baseline, threshold, failures):
    """The autotuner runs on the deterministic simulator, so its
    decisions are exactly reproducible: every workload's winning
    (strategy, group, streams) must equal the committed baseline, the
    tuned time must never exceed the default time (the default plan is
    always a candidate), and the simulated seconds must agree with the
    baseline to float-printing precision (threshold is unused)."""
    del threshold
    base_by_wl = {e["workload"]: e for e in baseline["tuner"]}
    seen = set()
    for entry in current["tuner"]:
        wl = entry["workload"]
        seen.add(wl)
        base = base_by_wl.get(wl)
        if base is None:
            failures.append(f"tuner {wl}: not in baseline (refresh "
                            f"and commit bench/baselines/tuner.json)")
            continue
        problems = []
        for field in ("strategy", "group", "streams"):
            if entry[field] != base[field]:
                problems.append(
                    f"{field} {entry[field]!r} != baseline "
                    f"{base[field]!r}")
        if entry["tuned_seconds"] > entry["default_seconds"] + 1e-12:
            problems.append(
                f"tuned {entry['tuned_seconds']:.9f}s slower than "
                f"default {entry['default_seconds']:.9f}s")
        for field in ("tuned_seconds", "default_seconds"):
            if abs(entry[field] - base[field]) > 1e-9:
                problems.append(
                    f"{field} {entry[field]:.9f} drifted from "
                    f"baseline {base[field]:.9f}")
        status = "FAIL" if problems else "ok"
        print(f"  [{status}] tuner {wl}: {entry['strategy']} "
              f"group={entry['group']} streams={entry['streams']} "
              f"tuned={entry['tuned_seconds']:.9f}s "
              f"default={entry['default_seconds']:.9f}s")
        for p in problems:
            failures.append(f"tuner {wl}: {p}")
    for wl in base_by_wl:
        if wl not in seen:
            failures.append(f"tuner {wl}: present in baseline but "
                            f"missing from current run")


def check_oblivious_join(current, baseline, threshold, failures):
    """Deterministic strategy sweep: the compiled join kernel and the
    cycle-exact simulator make every metric exactly reproducible, so
    any drift from the baseline is a program change, not noise
    (threshold is unused)."""
    del threshold
    for field in ("rows", "key_bits", "chips", "ops", "rotations",
                  "rotation_chain_depth"):
        if current[field] != baseline[field]:
            failures.append(
                f"oblivious_join {field} {current[field]} != "
                f"baseline {baseline[field]}")
    base_by_strategy = {e["strategy"]: e
                        for e in baseline["strategies"]}
    seen = set()
    for entry in current["strategies"]:
        name = entry["strategy"]
        seen.add(name)
        base = base_by_strategy.get(name)
        if base is None:
            failures.append(
                f"oblivious_join {name}: not in baseline (refresh "
                f"and commit bench/baselines/oblivious_join.json)")
            continue
        problems = []
        if abs(entry["seconds"] - base["seconds"]) > 1e-9:
            problems.append(
                f"seconds {entry['seconds']:.9f} drifted from "
                f"baseline {base['seconds']:.9f}")
        for field in ("chips", "instructions", "ks_hbm_bytes",
                      "ks_net_bytes"):
            if entry[field] != base[field]:
                problems.append(
                    f"{field} {entry[field]} != baseline "
                    f"{base[field]}")
        status = "FAIL" if problems else "ok"
        print(f"  [{status}] oblivious_join {name}: "
              f"{entry['seconds'] * 1e3:.3f} ms "
              f"hbm={entry['ks_hbm_bytes']} "
              f"net={entry['ks_net_bytes']}")
        for p in problems:
            failures.append(f"oblivious_join {name}: {p}")
    for name in base_by_strategy:
        if name not in seen:
            failures.append(
                f"oblivious_join {name}: present in baseline but "
                f"missing from current run")


def refresh(args):
    os.makedirs(args.baseline_dir, exist_ok=True)
    for name, path in (
        ("emulator_throughput.json", args.emulator_throughput),
        ("compile_time.json", args.compile_time),
        ("tuner.json", args.tuner),
        ("oblivious_join.json", args.oblivious_join),
    ):
        if path is None:
            continue
        out = os.path.join(args.baseline_dir, name)
        with open(out, "w") as f:
            json.dump(load_json(path), f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"refreshed {out} from {path}")
    if args.serve_plan_cache is not None:
        print("note: bench/baselines/serve_plan_cache.json holds "
              "hand-set absolute bounds, not measurements — edit it "
              "directly instead of refreshing")


def main():
    parser = argparse.ArgumentParser(
        description="benchmark regression gate")
    parser.add_argument("--emulator-throughput",
                        help="current emulator_throughput.json")
    parser.add_argument("--compile-time",
                        help="current compile_time.json")
    parser.add_argument("--serve-plan-cache",
                        help="current serve_demo --bench-json output")
    parser.add_argument("--tuner",
                        help="current serve_demo --tuner-json output")
    parser.add_argument("--oblivious-join",
                        help="current bench/oblivious_join output")
    parser.add_argument("--baseline-dir", default="bench/baselines")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="max tolerated slowdown fraction")
    parser.add_argument("--refresh", action="store_true",
                        help="rewrite baselines instead of checking")
    args = parser.parse_args()

    if (args.emulator_throughput is None and args.compile_time is None
            and args.serve_plan_cache is None and args.tuner is None
            and args.oblivious_join is None):
        parser.error("nothing to do: pass --emulator-throughput, "
                     "--compile-time, --serve-plan-cache, --tuner, "
                     "and/or --oblivious-join")
    if args.refresh:
        refresh(args)
        return 0

    failures = []
    checks = (
        ("emulator_throughput.json", args.emulator_throughput,
         check_throughput),
        ("compile_time.json", args.compile_time, check_compile_time),
        ("serve_plan_cache.json", args.serve_plan_cache,
         check_serve_plan_cache),
        ("tuner.json", args.tuner, check_tuner),
        ("oblivious_join.json", args.oblivious_join,
         check_oblivious_join),
    )
    for name, path, check in checks:
        if path is None:
            continue
        base_path = os.path.join(args.baseline_dir, name)
        if not os.path.exists(base_path):
            print(f"missing baseline {base_path}; generate it with "
                  f"--refresh and commit it", file=sys.stderr)
            return 1
        print(f"{name}:")
        check(load_json(path), load_json(base_path), args.threshold,
              failures)

    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        print("(if this slowdown is intended, refresh the baselines "
              "with scripts/check_bench.py --refresh and commit them "
              "in the same PR)", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
