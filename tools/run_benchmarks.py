#!/usr/bin/env python3
"""Benchmark regression harness: runs the engine micro-benchmarks and emits
a machine-readable BENCH_9.json so the perf trajectory is comparable across
PRs.

What it runs (from a Release build tree):
  * bench/bench_micro_engine   (google-benchmark, JSON output) — serial
    states/s on the default and multi-constraint corpus configurations,
    task-replay throughput, full-state-expansion latency.
  * bench/bench_mapping_update (plain text) — the share of runtime the
    incremental mapping scheme avoids vs full per-state recomputation.
  * bench/bench_work_stealing_ablation --schedulers (with --schedulers) —
    the central-queue vs distributed-deques sweep under the virtual-time
    simulator at N_t in {1,2,4,8,16,32,48,96}. Virtual time is
    deterministic, so these numbers are exact across machines and gate
    tightly.
  * bench/bench_decompose_sharding (with --decompose) — sharded (component
    decomposition, decompose::run_sharded, shards back to back) vs
    monolithic enumeration of a multi-component instance under the
    virtual-time simulator at N_t in {1,2,4,8}. Also deterministic; the
    hard gate requires sharded throughput >= monolithic (speedup >= 1.0) at
    every N_t.
  * bench/bench_incremental_edits (with --incremental) — an
    IncrementalSession (src/incremental) absorbing a structure-preserving
    PAM edit stream vs a from-scratch decompose::run_sharded at every step.
    Cost metric is states expanded (deterministic). The hard gate requires,
    on the >= 4-component counting family: median per-edit speedup >= 5x,
    at most 1 recomputed component per edit, an unsaturated (exact) count,
    and count equality with the baseline at every step; and, on the
    collecting family, sorted stand sets byte-equal at every step.

Wall-clock micro-benchmarks run with >= 4 repetitions by default and the
*median* across repetitions is the headline number. The PR 5 post-mortem
(docs/PERFORMANCE.md) showed why: a single repetition on a noisy one-core
host mis-measured BM_FullStateExpansion by ~10% and was chased as a code
regression. Each micro entry records the repetition count and the spread
(cv) so a noisy reading is visible in the report itself.

Output schema (BENCH_9.json):
  {
    "schema": "gentrius-bench-9",
    "baseline": {...},            # pinned pre-PR-4 reference numbers
    "micro_engine": {name: {"real_time_ns", "items_per_second",
                            "states_per_sec",      # medians over repetitions
                            "repetitions": int,
                            "cv_percent": float | null}},
    "mapping_update": {"mean_share_percent": float | null,
                       "repetitions": int},
    "scheduler_sweep": {"instance": str, "serial_makespan": float,
                        "central" | "distributed":
                            {nt: {"makespan", "speedup", ...}}} | null,
    "decompose_sharding": {"instance": str, "components": int,
                           nt: {"mono_makespan", "sharded_seq_makespan",
                                "speedup_seq", "mono_trees",
                                "sharded_trees"}} | null,
    "incremental_edits": {"families": {name:
                          {"instance": str, "components": int,
                           "enumerable": int, "closed_form": bool,
                           "collect": bool, "init": {...},
                           "edits": [{"kind", "dirty", "inc_states",
                                      "scratch_states", "count_ok",
                                      "stands_ok", "speedup"}],
                           "median_speedup", "amortized_speedup",
                           "max_dirty", "equal": bool}}} | null,
    "derived": {"multi_constraint_states_per_sec", "per_state_ns",
                "speedup_vs_baseline",
                "distributed_over_central_speedup_at_48",
                "max_scheduler_mismatch_percent_at_low_nt",
                "sharded_over_mono_speedup_at_1",
                "incremental_median_speedup",
                "incremental_amortized_speedup"}
  }

Typical use:
  python3 tools/run_benchmarks.py --build-dir build-bench --schedulers \
      --decompose --incremental
  python3 tools/run_benchmarks.py --min-time 0.1 --mapping-scale 0.2 \
      --schedulers --decompose --incremental \
      --check-against BENCH_9.json  # CI smoke

--check-against compares every micro-benchmark present in both reports
(medians vs medians: states/s and items/s must not fall below, latency-only
micros such as BM_FullStateExpansion must not rise above, baseline within
the --max-regression factor) plus, when both reports carry a scheduler
sweep, the distributed speedup at N_t = 48. Exits non-zero on any
regression (the CI gate).
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import subprocess
import sys

# Serial states/s of the seed engine (commit 206d898, pre-PR 4) on the
# multi-constraint configuration (56 taxa, 12 loci, 55 % missing, seed
# 7014, max_states 300k), measured with the same probe protocol as
# BM_SerialStateThroughputMultiConstraint. The acceptance bar for PR 4 is
# >= 1.5x this number.
PRE_PR4_MULTI_CONSTRAINT_STATES_PER_SEC = 577_312.0

MULTI_BENCH = "BM_SerialStateThroughputMultiConstraint"


def run_micro_engine(build_dir: pathlib.Path, min_time: float | None,
                     repetitions: int) -> dict:
    exe = build_dir / "bench" / "bench_micro_engine"
    if not exe.exists():
        sys.exit(f"error: {exe} not found - build the bench targets first "
                 f"(cmake --build {build_dir} --target bench_micro_engine)")
    cmd = [str(exe), "--benchmark_format=json"]
    if min_time is not None:
        # Plain double: compatible with both old and new google-benchmark
        # (newer releases also accept a "0.5s" suffix form, old ones do not).
        cmd.append(f"--benchmark_min_time={min_time}")
    if repetitions > 1:
        cmd.append(f"--benchmark_repetitions={repetitions}")
        cmd.append("--benchmark_report_aggregates_only=true")
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    data = json.loads(proc.stdout)
    out: dict = {}
    # With repetitions google-benchmark emits one aggregate row per statistic
    # (mean/median/stddev/cv). The median is the headline value — robust to
    # the one-off scheduler hiccups that dominate single-core containers —
    # and the cv is recorded alongside so a noisy run is visible in the
    # report rather than silently trusted.
    for b in data.get("benchmarks", []):
        name = b.get("run_name", b["name"])
        agg = b.get("aggregate_name")
        if b.get("run_type") == "aggregate":
            if agg == "median":
                entry = out.setdefault(name, {})
                entry["real_time_ns"] = to_ns(b.get("real_time", 0.0),
                                              b.get("time_unit", "ns"))
                entry["items_per_second"] = b.get("items_per_second")
                if "states/s" in b:
                    entry["states_per_sec"] = b["states/s"]
                entry["repetitions"] = b.get("repetitions", repetitions)
            elif agg == "cv":
                # cv rows report the ratio in real_time (dimensionless).
                out.setdefault(name, {})["cv_percent"] = (
                    b.get("real_time", 0.0) * 100.0)
        elif repetitions <= 1:
            entry = {
                "real_time_ns": to_ns(b.get("real_time", 0.0),
                                      b.get("time_unit", "ns")),
                "items_per_second": b.get("items_per_second"),
                "repetitions": 1,
                "cv_percent": None,
            }
            if "states/s" in b:
                entry["states_per_sec"] = b["states/s"]
            out[name] = entry
    return out


def to_ns(value: float, unit: str) -> float:
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit, 1.0)
    return value * scale


def run_mapping_update(build_dir: pathlib.Path, scale: float,
                       reps: int = 5) -> dict:
    exe = build_dir / "bench" / "bench_mapping_update"
    if not exe.exists():
        sys.exit(f"error: {exe} not found - build the bench targets first "
                 f"(cmake --build {build_dir} --target bench_mapping_update)")
    cmd = [str(exe), str(scale), str(reps)]
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    m = re.search(r"mean share of runtime the incremental scheme avoids:\s*"
                  r"([0-9.]+)%", proc.stdout)
    reps = re.search(r"medians of (\d+) runs per regime", proc.stdout)
    return {
        "scale": scale,
        "mean_share_percent": float(m.group(1)) if m else None,
        "repetitions": int(reps.group(1)) if reps else 1,
    }


SCHED_LINE = re.compile(
    r"^SCHED scheduler=(\w+) nt=(\d+) makespan=([0-9.]+) speedup=([0-9.]+) "
    r"tasks_offered=(\d+) tasks_stolen=(\d+) steal_attempts=(\d+) "
    r"failed_probes=(\d+) rejections=(\d+) max_depth=(\d+)")
SCHED_SERIAL = re.compile(
    r"^SCHED serial makespan=([0-9.]+) states=(\d+) trees=(\d+) "
    r"reason=(\S+)")
SCHED_INSTANCE = re.compile(r"^instance (\S.*)$", re.MULTILINE)


def run_scheduler_sweep(build_dir: pathlib.Path) -> dict:
    exe = build_dir / "bench" / "bench_work_stealing_ablation"
    if not exe.exists():
        sys.exit(f"error: {exe} not found - build the bench targets first "
                 f"(cmake --build {build_dir} "
                 f"--target bench_work_stealing_ablation)")
    cmd = [str(exe), "--schedulers"]
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    sweep: dict = {"central": {}, "distributed": {}}
    im = SCHED_INSTANCE.search(proc.stdout)
    if im:
        sweep["instance"] = im.group(1)
    for line in proc.stdout.splitlines():
        sm = SCHED_SERIAL.match(line)
        if sm:
            sweep["serial_makespan"] = float(sm.group(1))
            sweep["serial_states"] = int(sm.group(2))
            sweep["serial_trees"] = int(sm.group(3))
            sweep["serial_reason"] = sm.group(4)
            continue
        m = SCHED_LINE.match(line)
        if not m:
            continue
        sweep[m.group(1)][m.group(2)] = {
            "makespan": float(m.group(3)),
            "speedup": float(m.group(4)),
            "tasks_offered": int(m.group(5)),
            "tasks_stolen": int(m.group(6)),
            "steal_attempts": int(m.group(7)),
            "failed_probes": int(m.group(8)),
            "rejections": int(m.group(9)),
            "max_depth": int(m.group(10)),
        }
    if not sweep["central"] or not sweep["distributed"]:
        sys.exit("error: no SCHED lines parsed from "
                 "bench_work_stealing_ablation --schedulers")
    return sweep


SHARD_HEADER = re.compile(
    r"^SHARD instance=(\S+) components=(\d+) enumerable=(\d+)")
SHARD_LINE = re.compile(
    r"^SHARD nt=(\d+) mono_makespan=([0-9.]+) "
    r"sharded_seq_makespan=([0-9.]+) speedup_seq=([0-9.]+) "
    r"mono_trees=(\d+) sharded_trees=(\d+) reason=(\S+)")


def run_decompose_sweep(build_dir: pathlib.Path) -> dict:
    exe = build_dir / "bench" / "bench_decompose_sharding"
    if not exe.exists():
        sys.exit(f"error: {exe} not found - build the bench targets first "
                 f"(cmake --build {build_dir} "
                 f"--target bench_decompose_sharding)")
    cmd = [str(exe)]
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    sweep: dict = {"by_nt": {}}
    for line in proc.stdout.splitlines():
        hm = SHARD_HEADER.match(line)
        if hm:
            sweep["instance"] = hm.group(1)
            sweep["components"] = int(hm.group(2))
            sweep["enumerable"] = int(hm.group(3))
            continue
        m = SHARD_LINE.match(line)
        if not m:
            continue
        sweep["by_nt"][m.group(1)] = {
            "mono_makespan": float(m.group(2)),
            "sharded_seq_makespan": float(m.group(3)),
            "speedup_seq": float(m.group(4)),
            "mono_trees": int(m.group(5)),
            "sharded_trees": int(m.group(6)),
            "reason": m.group(7),
        }
    if not sweep["by_nt"]:
        sys.exit("error: no SHARD lines parsed from bench_decompose_sharding")
    return sweep


def gate_decompose(sweep: dict) -> bool:
    """Hard gate (virtual time is deterministic, so this is exact): the
    instance must actually decompose (>= 2 components), the sharded and
    monolithic runs must find the same stand, and sharded throughput must
    be >= monolithic (speedup >= 1.0) at every N_t."""
    ok = True
    if sweep.get("components", 0) < 2:
        print(f"decompose gate: instance has {sweep.get('components')} "
              "component(s), need >= 2: FAIL")
        ok = False
    for nt, e in sorted(sweep["by_nt"].items(), key=lambda kv: int(kv[0])):
        agree = e["mono_trees"] == e["sharded_trees"]
        fast = e["speedup_seq"] >= 1.0
        print(f"decompose gate: nt={nt} sharded/mono speedup "
              f"{e['speedup_seq']:.3f}x trees "
              f"{e['sharded_trees']}/{e['mono_trees']}: "
              f"{'OK' if agree and fast else 'FAIL'}")
        ok &= agree and fast
    return ok


def print_decompose_table(sweep: dict) -> None:
    print(f"decompose sharding ({sweep.get('instance', '?')}, "
          f"{sweep.get('components', '?')} components):")
    print(f"  {'nt':>4} {'mono':>12} {'sharded':>12} {'speedup':>9}")
    for nt, e in sorted(sweep["by_nt"].items(), key=lambda kv: int(kv[0])):
        print(f"  {nt:>4} {e['mono_makespan']:12.1f} "
              f"{e['sharded_seq_makespan']:12.1f} "
              f"{e['speedup_seq']:8.2f}x")


def sweep_derived(sweep: dict) -> dict:
    """Per-N_t speedup comparison plus the two headline figures."""
    out: dict = {}
    central, dist = sweep["central"], sweep["distributed"]
    c48 = central.get("48", {}).get("speedup")
    d48 = dist.get("48", {}).get("speedup")
    if c48 and d48:
        out["distributed_over_central_speedup_at_48"] = d48 / c48
    mismatches = []
    for nt in ("1", "2", "4"):
        c = central.get(nt, {}).get("speedup")
        d = dist.get(nt, {}).get("speedup")
        if c and d:
            mismatches.append(abs(d - c) / c * 100.0)
    if mismatches:
        out["max_scheduler_mismatch_percent_at_low_nt"] = max(mismatches)
    return out


def print_sweep_table(sweep: dict) -> None:
    nts = sorted(set(sweep["central"]) | set(sweep["distributed"]), key=int)
    print(f"scheduler sweep ({sweep.get('instance', '?')}):")
    print(f"  {'nt':>4} {'central':>9} {'distributed':>12} {'ratio':>7}")
    for nt in nts:
        c = sweep["central"].get(nt, {}).get("speedup")
        d = sweep["distributed"].get(nt, {}).get("speedup")
        ratio = f"{d / c:7.3f}" if c and d else "      -"
        print(f"  {nt:>4} {c or float('nan'):9.2f} "
              f"{d or float('nan'):12.2f} {ratio}")



INC_HEADER = re.compile(
    r"^INC family=(\w+) instance=(\S+) components=(\d+) enumerable=(\d+) "
    r"edits=(\d+) closed_form=(\d) collect=(\d)")
INC_INIT = re.compile(
    r"^INCINIT family=(\w+) states=(\d+) trees=(\d+) saturated=(\d)")
INC_EDIT = re.compile(
    r"^INCEDIT family=(\w+) i=(\d+) kind=(\w+) dirty=(\d+) "
    r"inc_states=(\d+) scratch_states=(\d+) hits=(\d+) misses=(\d+) "
    r"count_ok=(\d) stands_ok=(\d) speedup=([0-9.]+)")
INC_SUM = re.compile(
    r"^INCSUM family=(\w+) edits=(\d+) median_speedup=([0-9.]+) "
    r"amortized_speedup=([0-9.]+) max_dirty=(\d+) equal=(\d) "
    r"lifetime_hits=(\d+) lifetime_misses=(\d+)")

# The incremental acceptance bars (states expanded are deterministic, so
# these are exact): the >= 4-component counting family must amortize each
# edit to >= 5x cheaper than from-scratch at the median, recompute at most
# one component per edit, and agree with the baseline exactly.
INCREMENTAL_MIN_COMPONENTS = 4
INCREMENTAL_MIN_MEDIAN_SPEEDUP = 5.0


def run_incremental_sweep(build_dir: pathlib.Path) -> dict:
    exe = build_dir / "bench" / "bench_incremental_edits"
    if not exe.exists():
        sys.exit(f"error: {exe} not found - build the bench targets first "
                 f"(cmake --build {build_dir} "
                 f"--target bench_incremental_edits)")
    cmd = [str(exe)]
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    sweep: dict = {"families": {}}
    for line in proc.stdout.splitlines():
        hm = INC_HEADER.match(line)
        if hm:
            sweep["families"][hm.group(1)] = {
                "instance": hm.group(2),
                "components": int(hm.group(3)),
                "enumerable": int(hm.group(4)),
                "closed_form": hm.group(6) == "1",
                "collect": hm.group(7) == "1",
                "edits": [],
            }
            continue
        im = INC_INIT.match(line)
        if im:
            sweep["families"][im.group(1)]["init"] = {
                "states": int(im.group(2)),
                "trees": int(im.group(3)),
                "saturated": im.group(4) == "1",
            }
            continue
        em = INC_EDIT.match(line)
        if em:
            sweep["families"][em.group(1)]["edits"].append({
                "kind": em.group(3),
                "dirty": int(em.group(4)),
                "inc_states": int(em.group(5)),
                "scratch_states": int(em.group(6)),
                "hits": int(em.group(7)),
                "misses": int(em.group(8)),
                "count_ok": em.group(9) == "1",
                "stands_ok": em.group(10) == "1",
                "speedup": float(em.group(11)),
            })
            continue
        sm = INC_SUM.match(line)
        if sm:
            sweep["families"][sm.group(1)].update({
                "median_speedup": float(sm.group(3)),
                "amortized_speedup": float(sm.group(4)),
                "max_dirty": int(sm.group(5)),
                "equal": sm.group(6) == "1",
                "lifetime_hits": int(sm.group(7)),
                "lifetime_misses": int(sm.group(8)),
            })
    if not sweep["families"]:
        sys.exit("error: no INC lines parsed from bench_incremental_edits")
    return sweep


def gate_incremental(sweep: dict) -> bool:
    ok = True
    gate_family = None
    collect_family = None
    for name, fam in sorted(sweep["families"].items()):
        if not fam.get("collect") and \
                fam.get("components", 0) >= INCREMENTAL_MIN_COMPONENTS:
            gate_family = (name, fam)
        if fam.get("collect"):
            collect_family = (name, fam)
        equal = fam.get("equal", False)
        print(f"incremental gate: family={name} equal={equal}: "
              f"{'OK' if equal else 'FAIL'}")
        ok &= equal

    if gate_family is None:
        print(f"incremental gate: no counting family with >= "
              f"{INCREMENTAL_MIN_COMPONENTS} components: FAIL")
        ok = False
    else:
        name, fam = gate_family
        med = fam.get("median_speedup", 0.0)
        fast = med >= INCREMENTAL_MIN_MEDIAN_SPEEDUP
        print(f"incremental gate: family={name} "
              f"components={fam['components']} median speedup {med:.2f}x "
              f"(need >= {INCREMENTAL_MIN_MEDIAN_SPEEDUP:.0f}x): "
              f"{'OK' if fast else 'FAIL'}")
        ok &= fast
        local = fam.get("max_dirty", 99) <= 1
        print(f"incremental gate: family={name} max recomputed components "
              f"per edit {fam.get('max_dirty')}: "
              f"{'OK' if local else 'FAIL'}")
        ok &= local
        exact = not fam.get("init", {}).get("saturated", True)
        print(f"incremental gate: family={name} count exact "
              f"(unsaturated): {'OK' if exact else 'FAIL'}")
        ok &= exact

    if collect_family is None:
        print("incremental gate: no stand-collecting family: FAIL")
        ok = False
    return ok


def print_incremental_table(sweep: dict) -> None:
    for name, fam in sorted(sweep["families"].items()):
        print(f"incremental edits ({name}: {fam.get('instance', '?')}, "
              f"{fam.get('components', '?')} components, "
              f"{'stands' if fam.get('collect') else 'counts'}):")
        print(f"  {'edit':>4} {'kind':>10} {'dirty':>5} {'inc':>8} "
              f"{'scratch':>8} {'speedup':>9}")
        for i, e in enumerate(fam.get("edits", []), 1):
            print(f"  {i:>4} {e['kind']:>10} {e['dirty']:>5} "
                  f"{e['inc_states']:>8} {e['scratch_states']:>8} "
                  f"{e['speedup']:8.2f}x")
        print(f"  median {fam.get('median_speedup', 0):.2f}x amortized "
              f"{fam.get('amortized_speedup', 0):.2f}x "
              f"hits {fam.get('lifetime_hits')} "
              f"misses {fam.get('lifetime_misses')}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default="build-bench", type=pathlib.Path,
                    help="Release build tree containing bench/ binaries")
    ap.add_argument("--output", default="BENCH_9.json", type=pathlib.Path)
    ap.add_argument("--min-time", type=float, default=None,
                    help="google-benchmark per-benchmark min time, seconds "
                         "(default: library default; use 0.1 for CI smoke)")
    ap.add_argument("--repetitions", type=int, default=4,
                    help="repetitions per micro-benchmark; the median is "
                         "reported (default 4 — single-rep wall-clock "
                         "numbers proved untrustworthy, see the PR 5 "
                         "post-mortem in docs/PERFORMANCE.md)")
    ap.add_argument("--mapping-scale", type=float, default=1.0,
                    help="corpus scale for bench_mapping_update "
                         "(0.2 keeps the CI smoke run short)")
    ap.add_argument("--mapping-reps", type=int, default=5,
                    help="interleaved runs per regime in "
                         "bench_mapping_update; the share is computed "
                         "from medians (default 5)")
    ap.add_argument("--skip-mapping-update", action="store_true",
                    help="only run bench_micro_engine")
    ap.add_argument("--schedulers", action="store_true",
                    help="also run the central vs distributed scheduler "
                         "sweep (bench_work_stealing_ablation --schedulers)")
    ap.add_argument("--decompose", action="store_true",
                    help="also run the sharded-vs-monolithic decomposition "
                         "sweep (bench_decompose_sharding); hard-gates "
                         "sharded throughput >= monolithic")
    ap.add_argument("--incremental", action="store_true",
                    help="also run the incremental re-enumeration sweep "
                         "(bench_incremental_edits); hard-gates >= 5x "
                         "median per-edit speedup on the >= 4-component "
                         "family and exact agreement with from-scratch at "
                         "every edit step")
    ap.add_argument("--check-against", type=pathlib.Path, default=None,
                    help="baseline BENCH_N.json; exit non-zero when any "
                         "micro-benchmark present in both reports (or the "
                         "distributed speedup at N_t=48, when both reports "
                         "have a sweep) regressed by more than "
                         "--max-regression")
    ap.add_argument("--max-regression", type=float, default=2.0,
                    help="regression factor that fails --check-against "
                         "(default 2.0 = fail when less than half as fast)")
    args = ap.parse_args()

    report = {
        "schema": "gentrius-bench-9",
        "generated_by": "tools/run_benchmarks.py",
        "build_dir": str(args.build_dir),
        "baseline": {
            "multi_constraint_states_per_sec":
                PRE_PR4_MULTI_CONSTRAINT_STATES_PER_SEC,
            "description":
                "seed engine (pre-PR 4) serial throughput on the "
                "56-taxon/12-locus/0.55-missing configuration, seed 7014",
        },
        "micro_engine": run_micro_engine(args.build_dir, args.min_time,
                                         args.repetitions),
        "mapping_update": (None if args.skip_mapping_update else
                           run_mapping_update(args.build_dir,
                                              args.mapping_scale,
                                              args.mapping_reps)),
        "scheduler_sweep": (run_scheduler_sweep(args.build_dir)
                            if args.schedulers else None),
        "decompose_sharding": (run_decompose_sweep(args.build_dir)
                               if args.decompose else None),
        "incremental_edits": (run_incremental_sweep(args.build_dir)
                              if args.incremental else None),
    }

    derived = {}
    multi = report["micro_engine"].get(MULTI_BENCH, {})
    sps = multi.get("states_per_sec")
    if sps:
        derived["multi_constraint_states_per_sec"] = sps
        derived["per_state_ns"] = 1e9 / sps
        derived["speedup_vs_baseline"] = (
            sps / PRE_PR4_MULTI_CONSTRAINT_STATES_PER_SEC)
    if report["scheduler_sweep"]:
        derived.update(sweep_derived(report["scheduler_sweep"]))
    if report["decompose_sharding"]:
        s1 = report["decompose_sharding"]["by_nt"].get("1", {})
        if "speedup_seq" in s1:
            derived["sharded_over_mono_speedup_at_1"] = s1["speedup_seq"]
    if report["incremental_edits"]:
        for fam in report["incremental_edits"]["families"].values():
            if not fam.get("collect") and \
                    fam.get("components", 0) >= INCREMENTAL_MIN_COMPONENTS:
                derived["incremental_median_speedup"] = fam.get(
                    "median_speedup")
                derived["incremental_amortized_speedup"] = fam.get(
                    "amortized_speedup")
    report["derived"] = derived

    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    if sps:
        print(f"multi-constraint: {sps:,.0f} states/s "
              f"({derived['per_state_ns']:.1f} ns/state, "
              f"{derived['speedup_vs_baseline']:.2f}x vs pre-PR baseline)")
    if report["scheduler_sweep"]:
        print_sweep_table(report["scheduler_sweep"])
        ratio = derived.get("distributed_over_central_speedup_at_48")
        if ratio:
            print(f"distributed/central speedup at nt=48: {ratio:.3f}x")
    if report["decompose_sharding"]:
        print_decompose_table(report["decompose_sharding"])
        if not gate_decompose(report["decompose_sharding"]):
            return 1
    if report["incremental_edits"]:
        print_incremental_table(report["incremental_edits"])
        if not gate_incremental(report["incremental_edits"]):
            return 1

    if args.check_against is not None:
        base = json.loads(args.check_against.read_text())
        base_sps = (base.get("derived") or {}).get(
            "multi_constraint_states_per_sec")
        if not base_sps:
            sys.exit(f"error: {args.check_against} has no "
                     "derived.multi_constraint_states_per_sec")
        if not sps:
            sys.exit(f"error: fresh run has no {MULTI_BENCH} result")
        failed = False
        # Per-micro diff: every benchmark present in both reports gates.
        # Throughput micros (states/s, items/s) must not fall below the
        # floor; latency-only micros — BM_FullStateExpansion is the one
        # that slipped through the old single-number check — must not rise
        # above the ceiling.
        base_micro = base.get("micro_engine") or {}
        for name in sorted(set(report["micro_engine"]) & set(base_micro)):
            fresh_e, base_e = report["micro_engine"][name], base_micro[name]
            fresh_v = fresh_e.get("states_per_sec") or fresh_e.get(
                "items_per_second")
            base_v = base_e.get("states_per_sec") or base_e.get(
                "items_per_second")
            if fresh_v and base_v:
                floor = base_v / args.max_regression
                ok = fresh_v >= floor
                print(f"micro check: {name} {fresh_v:,.0f}/s vs baseline "
                      f"{base_v:,.0f}/s (floor {floor:,.0f}): "
                      f"{'OK' if ok else 'REGRESSION'}")
            else:
                fresh_v = fresh_e.get("real_time_ns")
                base_v = base_e.get("real_time_ns")
                if not (fresh_v and base_v):
                    continue
                ceiling = base_v * args.max_regression
                ok = fresh_v <= ceiling
                print(f"micro check: {name} {fresh_v:,.0f}ns vs baseline "
                      f"{base_v:,.0f}ns (ceiling {ceiling:,.0f}ns): "
                      f"{'OK' if ok else 'REGRESSION'}")
            failed |= not ok
        if failed:
            return 1
        base_sweep = base.get("scheduler_sweep")
        if report["scheduler_sweep"] and base_sweep:
            base_d48 = (base_sweep.get("distributed", {})
                        .get("48", {}).get("speedup"))
            d48 = (report["scheduler_sweep"]["distributed"]
                   .get("48", {}).get("speedup"))
            if base_d48 and d48:
                floor = base_d48 / args.max_regression
                verdict = "OK" if d48 >= floor else "REGRESSION"
                print(f"scheduler check: distributed@48 {d48:.2f}x vs "
                      f"baseline {base_d48:.2f}x (floor {floor:.2f}x): "
                      f"{verdict}")
                if d48 < floor:
                    return 1
        base_dec = base.get("decompose_sharding")
        if report["decompose_sharding"] and base_dec:
            base_s1 = base_dec.get("by_nt", {}).get("1", {}).get(
                "speedup_seq")
            s1 = derived.get("sharded_over_mono_speedup_at_1")
            if base_s1 and s1:
                floor = base_s1 / args.max_regression
                verdict = "OK" if s1 >= floor else "REGRESSION"
                print(f"decompose check: sharded@1 {s1:.2f}x vs baseline "
                      f"{base_s1:.2f}x (floor {floor:.2f}x): {verdict}")
                if s1 < floor:
                    return 1
        base_inc = (base.get("derived") or {}).get(
            "incremental_median_speedup")
        fresh_inc = derived.get("incremental_median_speedup")
        if base_inc and fresh_inc:
            # States expanded are deterministic: tight tolerance, as above.
            floor = base_inc * 0.98
            verdict = "OK" if fresh_inc >= floor else "REGRESSION"
            print(f"incremental check: median speedup {fresh_inc:.2f}x vs "
                  f"baseline {base_inc:.2f}x (floor {floor:.2f}x): "
                  f"{verdict}")
            if fresh_inc < floor:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
