"""``python -m repro obs-report`` — analyse obs JSONL event streams.

The report answers its questions from the event stream alone (no
ledger, no daemon):

1. **Headline paper metrics** — the ρ trajectory, total first-round
   NACKs, and the worst per-interval recovery p99 — reproduced from the
   ``interval_complete`` events, which embed the full
   :class:`~repro.service.health.IntervalMetrics` record.
2. **Where does the time go** — per interval, wall milliseconds split by
   pipeline stage (marking vs. message build/encrypt vs. delivery vs.
   snapshot), reconstructed from ``span`` events via the interval field
   child spans inherit from the ``daemon.interval`` root span; plus the
   daemon's own ``phase_profile`` attribution when tracing is on.
3. **SLO burn** — the multi-window burn-rate trajectory from the
   ``slo_burn`` events, last and worst burn per window.
4. **Distributed traces** — with ``--trace-dir``, the skew-corrected
   per-member recovery timelines and the per-cohort client-side
   recovery-latency CDF (:mod:`repro.obs.assemble`).

``fec`` time (encode + decode spans) is reported as a nested column: it
overlaps ``build``/``deliver``, so it is shown for attribution, not
summed into the total.

Multiple inputs (repeated ``--obs-file``, positional paths, or whole
directories of ``*.jsonl`` streams) are merged by the envelope
timestamp before summarising.
"""

from __future__ import annotations

import glob
import math
import os

from repro.errors import ObsError
from repro.obs.events import (
    CHAOS_EVENT_KINDS,
    HA_EVENT_KINDS,
    WIRE_CHAOS_EVENT_KINDS,
    WIRE_EVENT_KINDS,
    read_events,
)


def expand_paths(paths):
    """Resolve files and directories into a flat list of JSONL files."""
    if isinstance(paths, (str, os.PathLike)):
        paths = [paths]
    out = []
    for path in paths:
        path = os.fspath(path)
        if os.path.isdir(path):
            found = sorted(glob.glob(os.path.join(path, "*.jsonl")))
            if not found:
                raise ObsError("no .jsonl files under %r" % (path,))
            out.extend(found)
        else:
            out.append(path)
    return out


def load_events(paths):
    """Read every stream and merge the records by wall-clock ``t``."""
    events = []
    for path in expand_paths(paths):
        events.extend(read_events(path))
    events.sort(key=lambda e: e["t"])
    return events

#: Top-level children of daemon.interval: disjoint, so they sum.
_TOP_SPANS = {
    "daemon.carry": "carry",
    "daemon.intake": "intake",
    "daemon.rekey": "rekey",
    "daemon.deliver": "deliver",
    "daemon.snapshot": "snapshot",
}

#: Nested spans shown as attribution detail (they overlap the top level).
_NESTED_SPANS = {
    "marking.apply": "marking",
    "message.build": "build",
    "fec.encode": "fec",
    "fec.encode_batch": "fec",
    "fec.decode": "fec",
}


def summarize(events):
    """Reduce a validated event list to the report's numbers."""
    intervals = [
        e["detail"] for e in events if e["kind"] == "interval_complete"
    ]
    intervals.sort(key=lambda d: d.get("interval", 0))
    spans = [e["detail"] for e in events if e["kind"] == "span"]

    rho_trajectory = [d.get("rho", 0.0) for d in intervals]
    active = [d for d in intervals if d.get("decision") != "empty"]
    p99s = [
        d["recovery_p99"]
        for d in intervals
        if isinstance(d.get("recovery_p99"), (int, float))
        and not math.isnan(d["recovery_p99"])
    ]
    decisions = {}
    for d in intervals:
        decision = d.get("decision", "?")
        decisions[decision] = decisions.get(decision, 0) + 1

    fault_counts = {}
    fault_timeline = []
    ha_counts = {}
    failover_timeline = []
    wire_counts = {}
    wire_deliveries = []
    survivability = {
        "counts": {},
        "fault_families": {},
        "crashes": [],
        "evictions": [],
        "invariants": {},
    }
    for event in events:
        kind = event["kind"]
        if kind in WIRE_EVENT_KINDS:
            wire_counts[kind] = wire_counts.get(kind, 0) + 1
            if kind == "wire_delivery_complete":
                wire_deliveries.append(dict(event["detail"]))
        if kind in WIRE_CHAOS_EVENT_KINDS:
            counts = survivability["counts"]
            counts[kind] = counts.get(kind, 0) + 1
            detail = event["detail"]
            if kind == "wire_chaos_fault":
                fault = detail.get("fault", "?")
                families = survivability["fault_families"]
                families[fault] = families.get(fault, 0) + 1
            elif kind == "wire_client_crashed":
                survivability["crashes"].append(dict(detail))
            elif kind == "wire_client_evicted":
                survivability["evictions"].append(dict(detail))
            elif kind == "wire_chaos_invariant":
                survivability["invariants"][
                    detail.get("invariant", "?")
                ] = bool(detail.get("passed"))
        if kind in HA_EVENT_KINDS:
            ha_counts[kind] = ha_counts.get(kind, 0) + 1
            failover_timeline.append(
                {"kind": kind, "detail": dict(event["detail"])}
            )
        if kind not in CHAOS_EVENT_KINDS:
            continue
        fault_counts[kind] = fault_counts.get(kind, 0) + 1
        fault_timeline.append(
            {"kind": kind, "detail": dict(event["detail"])}
        )

    breakdown = {}
    span_totals = {}
    for span in spans:
        name = span.get("name", "?")
        ms = float(span.get("ms", 0.0))
        entry = span_totals.setdefault(name, {"count": 0, "total_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += ms
        interval = span.get("interval")
        if interval is None:
            continue
        row = breakdown.setdefault(
            interval, {"total": 0.0, "fec": 0.0}
        )
        if name == "daemon.interval":
            row["total"] += ms
        elif name in _TOP_SPANS:
            row[_TOP_SPANS[name]] = row.get(_TOP_SPANS[name], 0.0) + ms
        if name in _NESTED_SPANS:
            key = _NESTED_SPANS[name]
            row[key] = row.get(key, 0.0) + ms
    for row in breakdown.values():
        accounted = sum(
            row.get(column, 0.0) for column in _TOP_SPANS.values()
        )
        row["other"] = max(0.0, row["total"] - accounted)

    phase_profiles = [
        e["detail"] for e in events if e["kind"] == "phase_profile"
    ]
    phase_profiles.sort(key=lambda d: d.get("interval", 0))
    slo_last = {}
    slo_worst = {}
    for event in events:
        if event["kind"] != "slo_burn":
            continue
        detail = event["detail"]
        name = detail.get("slo", "?")
        slo_last[name] = dict(detail)
        worst = slo_worst.setdefault(name, {})
        for window, burn in detail.get("windows", {}).items():
            worst[window] = max(worst.get(window, 0.0), burn)

    return {
        "n_events": len(events),
        "n_intervals": len(intervals),
        "intervals": intervals,
        "final_members": (
            intervals[-1].get("n_members", 0) if intervals else 0
        ),
        "rho_trajectory": rho_trajectory,
        "mean_rho": (
            sum(d.get("rho", 0.0) for d in active) / len(active)
            if active else 0.0
        ),
        "first_round_nacks_total": sum(
            d.get("first_round_nacks", 0) for d in intervals
        ),
        "recovery_p99_max": max(p99s) if p99s else None,
        "decisions": decisions,
        "fault_counts": fault_counts,
        "fault_timeline": fault_timeline,
        "ha_counts": ha_counts,
        "failover_timeline": failover_timeline,
        "wire_counts": wire_counts,
        "wire_deliveries": wire_deliveries,
        "wire_survivability": (
            survivability if survivability["counts"] else {}
        ),
        "wire_cohorts": _wire_cohorts(events) if wire_counts else {},
        "time_breakdown": breakdown,
        "span_totals": span_totals,
        "phase_profiles": phase_profiles,
        "slo_last": slo_last,
        "slo_worst": slo_worst,
    }


def _wire_cohorts(events):
    from repro.wire.fleet import cohort_summary

    return cohort_summary(events)


def _fmt_ms(value):
    return "%8.2f" % value


def render_report(paths, trace_dir=None):
    """Report lines for one or more JSONL files or stream directories.

    ``trace_dir`` additionally runs the cross-process trace assembly
    (:mod:`repro.obs.assemble`) over that directory's streams and
    appends the per-member timeline and per-cohort CDF sections.
    """
    files = expand_paths(paths)
    events = load_events(files)
    summary = summarize(events)
    shown = (
        files[0] if len(files) == 1 else "%d streams" % len(files)
    )
    lines = [
        "obs-report: %d event(s), %d interval(s) — %s"
        % (summary["n_events"], summary["n_intervals"], shown),
        "",
        "headline (from interval_complete events alone):",
        "  final members       %d" % summary["final_members"],
        "  rho trajectory      %s"
        % " ".join("%.2f" % rho for rho in summary["rho_trajectory"]),
        "  mean rho            %.3f (non-empty intervals)"
        % summary["mean_rho"],
        "  first-round NACKs   %d (total)"
        % summary["first_round_nacks_total"],
        "  recovery p99        %s"
        % (
            "%.1f rounds (worst interval)" % summary["recovery_p99_max"]
            if summary["recovery_p99_max"] is not None
            else "n/a (aggregate-only backend)"
        ),
        "  decisions           %s"
        % " ".join(
            "%s=%d" % (key, summary["decisions"][key])
            for key in sorted(summary["decisions"])
        ),
    ]
    if summary["failover_timeline"]:
        lines += [
            "",
            "failover timeline (HA events, in order):",
            "  %s"
            % " ".join(
                "%s=%d" % (kind, summary["ha_counts"][kind])
                for kind in sorted(summary["ha_counts"])
            ),
        ]
        for entry in summary["failover_timeline"]:
            detail = entry["detail"]
            rendered = " ".join(
                "%s=%s" % (key, detail[key]) for key in sorted(detail)
            )
            lines.append("  %-22s %s" % (entry["kind"], rendered))
    if summary["wire_counts"]:
        deliveries = summary["wire_deliveries"]
        lines += [
            "",
            "wire plane (wire_* events):",
            "  %s"
            % " ".join(
                "%s=%d" % (kind, summary["wire_counts"][kind])
                for kind in sorted(summary["wire_counts"])
            ),
        ]
        if deliveries:
            lines.append(
                "  deliveries          %d (rounds %s, unicast total %d, "
                "dropped total %d)"
                % (
                    len(deliveries),
                    " ".join(
                        str(d.get("rounds", "?")) for d in deliveries
                    ),
                    sum(d.get("unicast_served", 0) for d in deliveries),
                    sum(d.get("dropped", 0) for d in deliveries),
                )
            )
        for cohort in sorted(summary["wire_cohorts"]):
            stats = summary["wire_cohorts"][cohort]
            lines.append(
                "  cohort %-5s %5d report(s): recovery p50/p90/p99 "
                "%.1f/%.1f/%.1f ms, rounds %.2f, unicast %d, dropped %d"
                % (
                    cohort,
                    stats["reports"],
                    stats["recovery_ms"]["p50"],
                    stats["recovery_ms"]["p90"],
                    stats["recovery_ms"]["p99"],
                    stats["rounds_mean"],
                    stats["unicast"],
                    stats["dropped"],
                )
            )
    survivability = summary["wire_survivability"]
    if survivability:
        lines += [
            "",
            "wire survivability (wire-chaos events):",
            "  %s"
            % " ".join(
                "%s=%d" % (kind, survivability["counts"][kind])
                for kind in sorted(survivability["counts"])
            ),
        ]
        if survivability["fault_families"]:
            lines.append(
                "  datagram faults     %s"
                % " ".join(
                    "%s=%d"
                    % (fault, survivability["fault_families"][fault])
                    for fault in sorted(survivability["fault_families"])
                )
            )
        for entry in survivability["crashes"]:
            lines.append(
                "  crash scheduled     %s at interval %s (round %s)"
                % (
                    entry.get("member", "?"),
                    entry.get("interval", "?"),
                    entry.get("phase", "?"),
                )
            )
        for entry in survivability["evictions"]:
            lines.append(
                "  liveness eviction   %s at interval %s"
                % (
                    entry.get("member", "?"),
                    entry.get("interval", "?"),
                )
            )
        counts = survivability["counts"]
        lines.append(
            "  client resync FSM   resyncs=%d rehomed=%d "
            "stale-epoch-refused=%d register-giveups=%d"
            % (
                counts.get("wire_resync", 0),
                counts.get("wire_rehomed", 0),
                counts.get("wire_stale_epoch", 0),
                counts.get("wire_register_giveup", 0),
            )
        )
        if survivability["invariants"]:
            lines.append(
                "  invariants          %s"
                % " ".join(
                    "%s=%s"
                    % (
                        name,
                        "ok"
                        if survivability["invariants"][name]
                        else "FAIL",
                    )
                    for name in sorted(survivability["invariants"])
                )
            )
    if summary["fault_counts"]:
        lines += [
            "",
            "faults and recoveries (chaos events, in order):",
            "  %s"
            % " ".join(
                "%s=%d" % (kind, summary["fault_counts"][kind])
                for kind in sorted(summary["fault_counts"])
            ),
        ]
        for entry in summary["fault_timeline"]:
            detail = entry["detail"]
            rendered = " ".join(
                "%s=%s" % (key, detail[key]) for key in sorted(detail)
            )
            lines.append("  %-22s %s" % (entry["kind"], rendered))
    breakdown = summary["time_breakdown"]
    if breakdown:
        lines += [
            "",
            "where the time goes (ms; fec is nested inside build/deliver):",
            " int |    total |  marking |    build |  deliver | snapshot |"
            "      fec |    other",
        ]
        for interval in sorted(breakdown):
            row = breakdown[interval]
            lines.append(
                "%4s | %s | %s | %s | %s | %s | %s | %s"
                % (
                    interval,
                    _fmt_ms(row.get("total", 0.0)),
                    _fmt_ms(row.get("marking", 0.0)),
                    _fmt_ms(row.get("build", 0.0)),
                    _fmt_ms(row.get("deliver", 0.0)),
                    _fmt_ms(row.get("snapshot", 0.0)),
                    _fmt_ms(row.get("fec", 0.0)),
                    _fmt_ms(row.get("other", 0.0)),
                )
            )
    totals = summary["span_totals"]
    if totals:
        lines += ["", "span totals across the run:"]
        lines.append(
            "  %-24s %8s %12s %10s" % ("span", "count", "total ms", "mean ms")
        )
        ranked = sorted(
            totals.items(), key=lambda item: -item[1]["total_ms"]
        )
        for name, entry in ranked:
            lines.append(
                "  %-24s %8d %12.2f %10.3f"
                % (
                    name,
                    entry["count"],
                    entry["total_ms"],
                    entry["total_ms"] / max(1, entry["count"]),
                )
            )
    lines += _phase_lines(summary)
    lines += _slo_lines(summary)
    if trace_dir is not None:
        lines += _trace_lines(trace_dir)
    return lines


def _phase_lines(summary):
    """The daemon's own per-phase attribution (phase_profile events)."""
    profiles = summary["phase_profiles"]
    if not profiles:
        return []
    phases = sorted({p for d in profiles for p in d.get("phases", {})})
    lines = [
        "",
        "phase profile (engine %r; ms attributed by the span tap):"
        % (profiles[0].get("engine", "?"),),
        " int |" + "".join(" %9s |" % phase for phase in phases),
    ]
    for detail in profiles:
        row = detail.get("phases", {})
        lines.append(
            "%4s |" % detail.get("interval", "?")
            + "".join(
                " %9.3f |" % row.get(phase, 0.0) for phase in phases
            )
        )
    return lines


def _slo_lines(summary):
    """SLO burn rates: last sample and the worst burn per window."""
    last = summary["slo_last"]
    if not last:
        return []
    lines = ["", "SLO burn rates (error rate / error budget, per window):"]
    for name in sorted(last):
        detail = last[name]
        windows = detail.get("windows", {})
        worst = summary["slo_worst"].get(name, {})
        lines.append(
            "  %-10s target %.3f  good %d/%d  burn now [%s]  worst [%s]"
            % (
                name,
                detail.get("target", 0.0),
                detail.get("good", 0),
                detail.get("total", 0),
                " ".join(
                    "%s=%.2f" % (w, windows[w]) for w in sorted(windows)
                ),
                " ".join(
                    "%s=%.2f" % (w, worst[w]) for w in sorted(worst)
                ),
            )
        )
    return lines


def _trace_lines(trace_dir):
    """The distributed-trace section: timelines, skew, cohort CDF."""
    from repro.obs.assemble import assemble, load_trace_dir

    assembly = assemble(load_trace_dir(trace_dir))
    complete = assembly.complete()
    lines = [
        "",
        "distributed traces (%s):" % trace_dir,
        "  streams             %s" % " ".join(assembly.streams),
        "  clock offsets       %s"
        % " ".join(
            "%s=%+.6fs" % (stream, assembly.offsets[stream])
            for stream in sorted(assembly.offsets)
        ),
        "  timelines           %d total, %d complete, %d incomplete"
        % (
            len(assembly.timelines),
            len(complete),
            len(assembly.timelines) - len(complete),
        ),
        "  trace digest        %s" % assembly.digest(),
    ]
    for interval, row in sorted(assembly.completeness().items()):
        lines.append(
            "  interval %-4d       expected %d, traced %d, complete %d"
            % (interval, row["expected"], row["seen"], row["complete"])
        )
    cdf = assembly.recovery_cdf()
    if cdf:
        lines.append(
            "  recovery-latency CDF per cohort (client-side ms):"
        )
        for cohort in sorted(cdf):
            stats = cdf[cohort]
            percentiles = stats["percentiles_ms"]
            lines.append(
                "    %-5s %5d member(s): %s"
                % (
                    cohort,
                    stats["count"],
                    " ".join(
                        "%s=%.1f" % (p, percentiles[p])
                        for p in sorted(
                            percentiles,
                            key=lambda s: int(s[1:]),
                        )
                    ),
                )
            )
    return lines
