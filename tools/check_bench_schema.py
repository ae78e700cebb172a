#!/usr/bin/env python3
"""Schema check for bench JSON reports.

CI's bench-smoke job runs the benches and uploads BENCH_*.json artifacts;
this script asserts that the reports a downstream dashboard depends on
actually contain the fields it reads — a bench refactor that silently
drops a metric should fail the job, not produce holes in the trend charts.

Usage:
    check_bench_schema.py <BENCH_*.json> [<BENCH_*.json> ...]

The schema is selected by the file's basename. Exits non-zero listing
every missing result or field across all given reports.
"""

import json
import os
import sys

# basename -> result-name -> fields that must be present (numeric).
_LATENCY_FIELDS = [
    "accept_p50_ms",
    "accept_p95_ms",
    "accept_p99_ms",
    "assign_p50_ms",
    "assign_p95_ms",
    "assign_p99_ms",
    "accept_samples",
    "assign_samples",
    "peak_intake_depth_batches",
]

_GAP_FIELDS = ["cost_eur", "gap_vs_optimal_eur", "gap_vs_optimal_pct"]

_THROUGHPUT_FIELDS = ["wall_s", "throughput_items_per_s", "items"]

_ROBUSTNESS_FIELDS = [
    "wall_s",
    "imbalance_reduction",
    "terminal_fraction",
    "offers_created",
    "fallbacks",
    "retries",
    "dead_letters",
]


def _robustness_legs():
    """Degradation-curve legs of BENCH_robustness.json; leg names are
    independent of MIRABEL_BENCH_SMALL (only the workload shrinks)."""
    legs = {}
    for rate in ("0.00", "0.05", "0.10", "0.20", "0.35", "0.50"):
        legs[f"drop/{rate}"] = _ROBUSTNESS_FIELDS
    for length in (0, 16, 48, 96):
        legs[f"blackout/{length}"] = _ROBUSTNESS_FIELDS
    legs["noretry/0.20"] = _ROBUSTNESS_FIELDS
    return legs


def _kernel_legs():
    """Per-size legs of BENCH_scheduler_kernel.json: the kernel against
    the preserved reference evaluator on both hot paths."""
    legs = {}
    for size in (32, 256, 2048):
        legs[f"child_evaluate/ref/{size}"] = _THROUGHPUT_FIELDS
        legs[f"child_evaluate/kernel/{size}"] = _THROUGHPUT_FIELDS + [
            "speedup_vs_ref"
        ]
        legs[f"trymove_scan/ref/{size}"] = _THROUGHPUT_FIELDS
        legs[f"trymove_scan/kernel/{size}"] = _THROUGHPUT_FIELDS + [
            "speedup_vs_ref"
        ]
    return legs


_UNCERTAINTY_FIELDS = [
    "point_mean_cost_eur",
    "robust_mean_cost_eur",
    "point_cvar_eur",
    "robust_cvar_eur",
    "point_regret_mean_eur",
    "robust_regret_mean_eur",
    "point_regret_p95_eur",
    "robust_regret_p95_eur",
    "robust_win",
    "realizations",
]

_STRESS_SCENARIOS = (
    "ev_charge_surge",
    "demand_response_event",
    "prosumer_flash_crowd",
    "price_spike",
)


def _uncertainty_legs():
    """Per-stress-scenario legs of BENCH_uncertainty_study.json plus the
    CVaR-trajectory and summary legs; leg names are independent of
    MIRABEL_BENCH_SMALL (only realizations/iterations shrink)."""
    legs = {}
    trajectory_fields = [
        f"{who}_cvar_a{alpha}"
        for who in ("point", "robust")
        for alpha in ("05", "10", "25", "50", "100")
    ]
    for name in _STRESS_SCENARIOS:
        legs[f"stress/{name}"] = _UNCERTAINTY_FIELDS
        legs[f"cvar_trajectory/{name}"] = trajectory_fields
    legs["summary"] = ["robust_wins", "scenarios"]
    return legs


REQUIRED_BY_FILE = {
    "BENCH_scheduler_kernel.json": _kernel_legs(),
    "BENCH_edms_runtime.json": {
        "latency/sustained": _LATENCY_FIELDS,
        "latency/bursty": _LATENCY_FIELDS,
        "streaming/pooled": ["wall_s", "accepted", "micro_schedules"],
        "shards/1": ["wall_s", "imbalance_reduction_kwh"],
    },
    "BENCH_robustness.json": _robustness_legs(),
    "BENCH_optimality_study.json": {
        "Exhaustive(optimal)": _GAP_FIELDS + ["optimal_proven"],
        "GreedySearch": _GAP_FIELDS,
        "EvolutionaryAlgorithm": _GAP_FIELDS,
        "BranchAndBound": _GAP_FIELDS
        + ["nodes_visited", "optimal_proven", "nodes_vs_combinations_pct"],
        "Portfolio": _GAP_FIELDS + ["portfolio_regret_eur", "optimal_proven"],
    },
    "BENCH_uncertainty_study.json": _uncertainty_legs(),
}


def check(path: str) -> int:
    required = REQUIRED_BY_FILE.get(os.path.basename(path))
    if required is None:
        print(
            f"check_bench_schema: no schema registered for {path} "
            f"(known: {', '.join(sorted(REQUIRED_BY_FILE))})",
            file=sys.stderr,
        )
        return 1
    with open(path, "r", encoding="utf-8") as f:
        report = json.load(f)
    results = {r.get("name"): r for r in report.get("results", [])}
    errors = []
    for name, fields in required.items():
        result = results.get(name)
        if result is None:
            errors.append(f"missing result: {name}")
            continue
        for field in fields:
            value = result.get(field)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{name}: field {field} missing or non-numeric")
    # Sanity: a latency leg with zero samples means the measurement silently
    # broke even if the fields exist.
    for name in ("latency/sustained", "latency/bursty"):
        if name not in required:
            continue
        result = results.get(name)
        if result and result.get("accept_samples", 0) <= 0:
            errors.append(f"{name}: accept_samples is zero")
    # Sanity: conservation under chaos — every robustness leg must close all
    # offers created before the wind-down, whatever the fault plan did.
    if os.path.basename(path) == "BENCH_robustness.json":
        for name in required:
            result = results.get(name)
            if result and result.get("terminal_fraction") != 1.0:
                errors.append(
                    f"{name}: terminal_fraction is "
                    f"{result.get('terminal_fraction')} (offers leaked a "
                    f"non-terminal lifecycle state)"
                )
    # Sanity: the optimality study is anchored by a completed enumeration; a
    # gap computed against an unproven "optimum" is not an optimality gap.
    anchor = results.get("Exhaustive(optimal)")
    if "Exhaustive(optimal)" in required and anchor is not None:
        if anchor.get("optimal_proven", 0) != 1:
            errors.append("Exhaustive(optimal): enumeration did not complete")
    # Sanity: CVaR is a tail mean, so it can never drop below the mean (a
    # small relative tolerance absorbs float reduction noise); and the
    # uncertainty layer's acceptance bar is the robust plan beating the
    # point plan on realized mean or CVaR in at least 3 of the 4 stress
    # scenarios.
    if os.path.basename(path) == "BENCH_uncertainty_study.json":
        for name in _STRESS_SCENARIOS:
            result = results.get(f"stress/{name}")
            if result is None:
                continue
            for who in ("point", "robust"):
                mean = result.get(f"{who}_mean_cost_eur")
                cvar = result.get(f"{who}_cvar_eur")
                if isinstance(mean, (int, float)) and isinstance(
                    cvar, (int, float)
                ):
                    tol = 1e-9 * max(1.0, abs(mean))
                    if cvar < mean - tol:
                        errors.append(
                            f"stress/{name}: {who} CVaR {cvar} below "
                            f"mean {mean}"
                        )
        summary = results.get("summary")
        if summary is not None and summary.get("robust_wins", 0) < 3:
            errors.append(
                f"summary: robust_wins is {summary.get('robust_wins')} "
                f"(acceptance requires >= 3 of 4 stress scenarios)"
            )
    if errors:
        for e in errors:
            print(f"check_bench_schema: {path}: {e}", file=sys.stderr)
        return 1
    print(f"check_bench_schema: {path} OK "
          f"({len(required)} results, all required fields present)")
    return 0


def main() -> int:
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    return max(check(path) for path in sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
