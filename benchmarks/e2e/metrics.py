"""Metrics, correctness gates and the two-set comparison.

:func:`evaluate` turns the raw records of one run (what the orchestrator
and the two children logged) into the end-to-end metrics, the per-layer
metrics and the list of gates; :func:`compare` judges two result sets
against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import bisect
import statistics

from tracing import percentile
from workloads import (
    UNION_KEY,
    answer_keys,
    exact_cardinalities,
    generate,
    timestamps,
    workload_for,
)

#: Traced-run requirement: span self times plus idle time cover each
#: process's wall time within this share.
COVERAGE_TOLERANCE = 0.10
#: A sanity bound on the three-way union answers, not an accuracy claim:
#: a union estimate off by more than this factor means the path is
#: broken, whatever the seed.  At r=128 the union estimate moves in
#: factor-of-two steps of its level and misses by 50% on some seeds, and
#: a result that is a small share of the union (e.g. (A & B) - C) misses
#: by more than 100%, so expressions are not gated at all.
MAX_UNION_FACTOR = 4.0


def _ms(ns) -> float:
    return ns / 1e6


def _median(samples) -> float:
    return statistics.median(samples) if samples else float("nan")


def _delta(snapshots: dict, *path):
    """``end - start`` of a numeric field nested under ``path`` (0 where
    the field does not exist, e.g. window counters of a plain engine)."""
    values = []
    for label in ("start", "end"):
        value = snapshots.get(label, {})
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
        values.append(value if value is not None else 0)
    return values[1] - values[0]


def freshness_samples(site: dict, tree: dict, window) -> list[int]:
    """Per window export: ns from its cut at the site until the root
    folded an uplink export covering it."""
    uplinks = sorted(tree["uplink_log"])
    covered = [entry[1] for entry in uplinks]
    folded: dict[int, int] = {}
    for first, last, at in tree["root_log"]:
        for sequence in range(first, last + 1):
            folded.setdefault(sequence, at)
    samples = []
    start, end = window
    for sequence, cut in site["export_log"]:
        if not start <= cut < end:
            continue
        index = bisect.bisect_left(covered, sequence)
        if index == len(uplinks):
            continue
        at = folded.get(uplinks[index][0])
        if at is not None:
            samples.append(at - cut)
    return samples


def root_fold_time(site_sequence: int, tree: dict) -> int | None:
    uplinks = sorted(tree["uplink_log"])
    covered = [entry[1] for entry in uplinks]
    index = bisect.bisect_left(covered, site_sequence)
    if index == len(uplinks):
        return None
    target = uplinks[index][0]
    for first, last, at in tree["root_log"]:
        if first <= target <= last:
            return at
    return None


def scored_answers(answers: dict, data: dict) -> dict[str, tuple[float, int]]:
    """``key -> (estimate, exact)`` per post-quiesce answer with exact > 0."""
    workload = workload_for(data["workload"], data["smoke"])
    inputs = generate(workload, data["seed"], data["seconds"], data["smoke"])
    count = data["consumed"]
    references = {None: exact_cardinalities(inputs, count)}
    if workload.query_windows:
        stamps = timestamps(workload, count)
        last = float(stamps[-1])
        for window in workload.query_windows:
            references[window] = exact_cardinalities(
                inputs, count, since=last - window, stamps=stamps
            )
    return {
        key: (answers[key]["value"], references[window][text])
        for key, text, window in answer_keys(workload)
        if references[window][text] > 0
    }


def _span(trace: dict | None, name: str, field: str = "self_ns") -> float:
    if not trace:
        return 0.0
    row = trace["spans"].get(name)
    return row[field] / 1e9 if row else 0.0


def _span_count(trace: dict | None, name: str) -> int:
    if not trace:
        return 0
    row = trace["spans"].get(name)
    return row["count"] if row else 0


def evaluate(data: dict) -> tuple[dict, dict, list]:
    """``(end_to_end, per_layer, gates)`` for one run's records.

    Each gate is ``(name, passed, detail)``.
    """
    workload = workload_for(data["workload"], data["smoke"])
    site, tree = data["site"], data["tree"]
    window = data["window"]
    start, end = window
    gates = []

    queries = [q for q in data["queries"] if start <= q[1] < end]
    latencies = [done - due for _, due, _, done in queries]
    send_lags = [sent - due for _, due, sent, _ in queries]
    export_cut = dict(map(tuple, site["export_log"]))
    # Chunks (ticks, or closed-loop exports) whose export was cut in the
    # window; the quiesce ship carries no updates and is left out.
    chunks = [
        c for c in site["chunks"] if c[3] and start <= export_cut.get(c[0], -1) < end
    ]
    freshness = freshness_samples(site, tree, window)

    site_snaps, tree_snaps = site["snapshots"], tree["snapshots"]
    updates = _delta(site_snaps, "updates")
    site_cpu = _delta(site_snaps, "cpu")
    tree_cpu = _delta(tree_snaps, "cpu")
    wire = _delta(site_snaps, "transport", "bytes_sent") + _delta(
        tree_snaps, "uplink", "bytes_sent"
    )

    ingest_rate = float("nan")
    if chunks:
        first = min(c[2] for c in chunks)
        folded = root_fold_time(max(c[0] for c in chunks), tree)
        if folded is not None and folded > first:
            ingest_rate = sum(c[3] for c in chunks) / ((folded - first) / 1e9)

    end_to_end = {
        "setup_s": statistics.median(data["setups"]),
        "ingest_updates_per_s": ingest_rate,
        "query_p50_ms": _ms(percentile(latencies, 50)),
        "query_p99_ms": _ms(percentile(latencies, 99)),
        "freshness_p50_ms": _ms(percentile(freshness, 50)),
        "freshness_p90_ms": _ms(percentile(freshness, 90)),
        "wire_bytes_per_update": wire / updates if updates else float("nan"),
        "cpu_ms_per_1k_updates": (
            (site_cpu + tree_cpu) * 1000 / (updates / 1000) if updates else float("nan")
        ),
        "site_rss_mb": _median(site["rss_mib"]),
        "tree_rss_mb": _median(tree["rss_mib"]),
    }

    # -- gates --------------------------------------------------------------
    site_q, tree_q = data["site_quiesced"], data["tree_quiesced"]
    gates.append(
        (
            "bit-identity",
            site_q["hashes"] == tree_q["hashes"],
            "sha256 of every all-time root family equals the site's",
        )
    )
    served, expected = data["served_answers"], site_q["answers"]
    mismatched = sorted(k for k in expected if served.get(k) != expected[k])
    gates.append(
        (
            "served-answers",
            not mismatched,
            "root answers equal the site engine's"
            + (f"; differ: {mismatched}" if mismatched else ""),
        )
    )
    if workload.bucket_width:
        clock = site_q["window_clock"]
        on_boundary = clock is not None and clock % workload.bucket_width == 0
        gates.append(
            ("bucket-boundary", on_boundary, f"windowed answers compared at {clock}")
        )
    gates.append(
        (
            "monotone-positions",
            data["position_regressions"] == 0,
            f"{data['position_regressions']} snapshot positions ran backwards",
        )
    )
    failed = data["query_failures"] + site["ship_failures"]
    gates.append(
        ("no-failures", failed == 0, f"{failed} failed queries or ships")
    )
    codes = data["exit_codes"]
    gates.append(
        (
            "clean-exit",
            all(code == 0 for code in codes.values()),
            f"child exit codes {codes}",
        )
    )
    missing = [k for k, v in end_to_end.items() if v != v]  # NaN
    gates.append(
        ("metrics-measured", not missing, f"unmeasured: {missing}" if missing else "")
    )
    pairs = scored_answers(served, data)
    rel_error = statistics.fmean(
        abs(est - exact) / exact for est, exact in pairs.values()
    )
    # Worst union miss as a factor, whichever side it errs on.
    union_factor = max(
        max(est / exact, exact / est) if est > 0 else float("inf")
        for key, (est, exact) in pairs.items()
        if key.startswith(UNION_KEY)
    )
    gates.append(
        (
            "answer-sanity",
            union_factor <= MAX_UNION_FACTOR,
            f"union estimates within x{union_factor:.3f} of exact "
            f"(mean relative error over all answers {rel_error:.4f})",
        )
    )

    per_layer = {}
    if data["trace"]:
        per_layer = _per_layer(data, queries, send_lags, chunks, freshness, rel_error)
        traces = {
            "load": data["load_trace"],
            "site": site["trace"],
            "tree": tree["trace"],
        }
        for process, trace in traces.items():
            coverage, unbalanced = trace["coverage"], trace["unbalanced"]
            gates.append(
                (
                    f"{process}-coverage",
                    abs(coverage - 1) <= COVERAGE_TOLERANCE and not unbalanced,
                    f"self times + idle cover {coverage:.3f} of wall time; "
                    f"{unbalanced} spans left open across a loop tick",
                )
            )
    return end_to_end, per_layer, gates


def _per_layer(data, queries, send_lags, chunks, freshness, rel_error) -> dict:
    site, tree = data["site"], data["tree"]
    s_trace, t_trace = site.get("trace"), tree.get("trace")
    l_trace = data.get("load_trace")
    traces = (s_trace, t_trace, l_trace)
    site_snaps, tree_snaps = site["snapshots"], tree["snapshots"]

    def summed(name, field="self_ns"):
        return sum(_span(trace, name, field) for trace in traces)

    hash_s = _delta(site_snaps, "plan", "hash_seconds")
    scatter_s = _delta(site_snaps, "plan", "scatter_seconds")
    hits = _delta(site_snaps, "plan", "hits")
    misses = _delta(site_snaps, "plan", "misses")
    query_stats = lambda field: _delta(tree_snaps, "query_stats", field)  # noqa: E731
    windowed_queries = query_stats("queries")
    dense = _delta(site_snaps, "transport", "payload_bytes_dense") + _delta(
        tree_snaps, "uplink", "payload_bytes_dense"
    )
    wire_payload = _delta(site_snaps, "transport", "payload_bytes_wire") + _delta(
        tree_snaps, "uplink", "payload_bytes_wire"
    )
    framed = sum(
        _delta(snaps, *path, key)
        for snaps, path in (
            (site_snaps, ("transport",)),
            (tree_snaps, ("uplink",)),
        )
        for key in ("bytes_sent", "bytes_received")
    )
    plan_hits = _delta(tree_snaps, "plan_hits")
    plan_parses = _delta(tree_snaps, "plan_parses")
    estimates = ((t_trace or {}).get("spans", {}).get("streams.serving.estimate") or {})
    ship_rtts = [c[5] - c[4] for c in chunks]
    client_rtts = [done - sent for _, _, sent, done in queries]
    lags = [c[2] - c[1] for c in chunks]
    ship_upstream = sum(
        (t_trace or {}).get("intervals", {}).get(
            "streams.net.coordinator.ship_upstream", []
        )
    )
    window_rotations = _delta(site_snaps, "window_stats", "rotations") + _delta(
        tree_snaps, "window_stats", "rotations"
    )
    window_expired = _delta(
        site_snaps, "window_stats", "buckets_expired"
    ) + _delta(tree_snaps, "window_stats", "buckets_expired")
    metrics = {
        "load.query_send_lag_p99_ms": _ms(percentile(send_lags, 99)),
        "load.site_lag_p99_ms": _ms(percentile(lags, 99)),
        "load.queries": len(queries),
        "load.exports": len(chunks),
        "load.freshness_samples": len(freshness),
        "site.cpu_frac": _delta(site_snaps, "cpu") / (_delta(site_snaps, "t") / 1e9),
        "tree.cpu_frac": _delta(tree_snaps, "cpu") / (_delta(tree_snaps, "t") / 1e9),
        "tree.loop_lag_p99_ms": _ms(percentile(tree["heartbeat_lags_ns"], 99)),
        "core.plan.hash_s": hash_s,
        "core.plan.scatter_s": scatter_s,
        "core.plan.cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.family.ingest_s": max(
            0.0, _span(s_trace, "core.family.ingest") - hash_s - scatter_s
        ),
        "core.family.diff_s": summed("core.family.diff"),
        "streams.engine.buffer_s": _span(s_trace, "streams.engine.buffer"),
        "streams.windows.observe_s": _span(s_trace, "streams.windows.observe"),
        "streams.windows.rotations": window_rotations,
        "streams.windows.buckets_expired": window_expired,
        "streams.windows.query_cache_hit_rate": (
            (query_stats("cache_hits") + query_stats("revalidations"))
            / windowed_queries
            if windowed_queries
            else 0.0
        ),
        "streams.distributed.site_export_s": _span(
            s_trace, "streams.distributed.site_export"
        ),
        "streams.distributed.uplink_export_s": _span(
            t_trace, "streams.distributed.uplink_export"
        ),
        "streams.distributed.leaf_collect_s": _span(
            t_trace, "streams.distributed.leaf_collect"
        ),
        "streams.distributed.root_collect_s": _span(
            t_trace, "streams.distributed.root_collect"
        ),
        "streams.distributed.collects": _delta(tree_snaps, "collects"),
        "streams.net.codec.encode_s": summed("streams.net.codec.encode"),
        "streams.net.codec.decode_s": summed("streams.net.codec.decode"),
        "streams.net.codec.compression_ratio": (
            dense / wire_payload if wire_payload else 1.0
        ),
        "streams.net.protocol.frame_encode_s": summed(
            "streams.net.protocol.frame_encode"
        ),
        "streams.net.protocol.frame_decode_s": summed(
            "streams.net.protocol.frame_decode"
        ),
        "streams.net.protocol.frames": sum(
            _span_count(trace, name)
            for trace in traces
            for name in (
                "streams.net.protocol.frame_encode",
                "streams.net.protocol.frame_decode",
            )
        ),
        "streams.net.protocol.bytes": framed
        + _delta(tree_snaps, "serving", "bytes_in")
        + _delta(tree_snaps, "serving", "bytes_out"),
        "streams.net.site.ship_rtt_p50_ms": _ms(percentile(ship_rtts, 50)),
        "streams.net.site.ship_rtt_p90_ms": _ms(percentile(ship_rtts, 90)),
        "streams.net.site.retries": _delta(site_snaps, "transport", "retries")
        + _delta(tree_snaps, "uplink", "retries"),
        "streams.net.coordinator.checkpoint_s": _span(
            t_trace, "streams.net.coordinator.checkpoint", "incl_ns"
        ),
        "streams.net.coordinator.checkpoints": _delta(tree_snaps, "checkpoints"),
        "streams.net.coordinator.ship_upstream_s": ship_upstream / 1e9,
        "streams.checkpoint.checkpoint_bytes": _delta(tree_snaps, "checkpoint_bytes"),
        "streams.checkpoint.write_s": _span(
            t_trace, "streams.checkpoint.write", "incl_ns"
        ),
        "streams.serving.estimate_s": _span(t_trace, "streams.serving.estimate"),
        "streams.serving.codec_s": summed("streams.serving.codec"),
        "streams.serving.estimate_p99_ms": _ms(
            percentile(estimates.get("durations", []), 99)
        ),
        "streams.serving.drains": _delta(tree_snaps, "drains"),
        "streams.serving.batched_drains": _delta(tree_snaps, "batched_drains"),
        "streams.serving.plan_cache_hit_rate": (
            plan_hits / (plan_hits + plan_parses) if plan_hits + plan_parses else 0.0
        ),
        "streams.serving.client_rtt_p50_ms": _ms(percentile(client_rtts, 50)),
        "streams.serving.client_rtt_p99_ms": _ms(percentile(client_rtts, 99)),
        "answer.rel_error": rel_error,
    }
    for process, trace in (("load", l_trace), ("site", s_trace), ("tree", t_trace)):
        metrics[f"{process}.coverage"] = trace["coverage"] if trace else float("nan")
        metrics[f"{process}.unattributed_frac"] = (
            trace["unattributed_frac"] if trace else float("nan")
        )
    return metrics


# -- comparing two result sets ------------------------------------------------


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """improved, unchanged, regressed or unresolved (see README)."""
    sign = 1.0 if better == "higher" else -1.0
    q1, base_median, q3 = quartiles(base)
    _, change_median, _ = quartiles(change)
    worse_by = sign * (base_median - change_median) / abs(base_median)
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    all_better = all(sign * (c - b) > 0 for b in base for c in change)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(change_median - base_median) > (q3 - q1)
        and sign * (change_median - base_median) > 0
    ):
        return "improved"
    if (q3 - q1) / abs(base_median) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(base_runs: dict, change_runs: dict, spec: dict) -> tuple[list, bool]:
    """Rows ``(workload, metric, base q1/med/q3, change q1/med/q3, verdict)``.

    ``*_runs`` map workload -> list of ``(seed, metrics)``; runs pair up
    by seed where both sides have it, else by order.
    """
    rows, regressed = [], False
    for workload in sorted(set(base_runs) & set(change_runs)):
        base = dict(base_runs[workload])
        change = dict(change_runs[workload])
        common = sorted(set(base) & set(change))
        if common:
            base_list = [base[seed] for seed in common]
            change_list = [change[seed] for seed in common]
        else:
            base_list, change_list = list(base.values()), list(change.values())
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [run[name] for run in base_list if name in run]
            c = [run[name] for run in change_list if name in run]
            if not b or not c:
                continue
            result = verdict(b, c, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            rows.append((workload, name, quartiles(b), quartiles(c), result))
    return rows, regressed


def declared_metrics(spec: dict, trace: bool) -> set[str]:
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_metric_names(spec: dict, produced: dict, trace: bool) -> list[str]:
    """Problems with the produced metric set against ``BENCHMARK.json``."""
    declared = declared_metrics(spec, trace)
    problems = []
    for name in sorted(set(produced) - declared):
        problems.append(f"metric {name!r} is not declared in BENCHMARK.json")
    for name in sorted(declared - set(produced)):
        problems.append(f"declared metric {name!r} was not produced")
    return problems

