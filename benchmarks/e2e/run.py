"""End-to-end rekey benchmark: five workloads and a layer ledger.

Two ways in:

``python3 benchmarks/e2e/run.py --seed 7``
    runs every workload, untraced then traced, each in a fresh
    subprocess, prints every metric by name with its unit and sample
    count, and writes ``benchmarks/e2e/out/results.json``;

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload (what the first form spawns, and what
    ``BENCHMARK.json``'s ``command`` names).  The last line of standard
    output is one JSON object: ``correct``, ``attempted``, ``failed``
    and ``metrics`` — the end-to-end metrics with ``--trace 0``, the
    per-layer metrics with ``--trace 1``.

Exit status is non-zero when an audit fails.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "interval_ms_p50": "ms",
    "requests_per_s": "1/s",
    "bandwidth_overhead": "ratio",
    "in_deadline_member_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: the span opened around each traced unit, root of its ledger
UNIT_SPAN = "bench.unit"


def _import_program():
    """The benchmark drives the checkout's own ``src/repro``; without
    it there is nothing to measure."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            "error: %s holds no repro package; run from a checkout\n" % SRC
        )
        raise SystemExit(2)
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def _host_lines():
    """Where the sockets and the state directory really are."""
    os.makedirs(OUT, exist_ok=True)
    device = "unknown device"
    best = ""
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                source, mount, fstype = line.split()[:3]
                inside = OUT == mount or OUT.startswith(
                    mount.rstrip("/") + "/"
                )
                if inside and len(mount) >= len(best):
                    best, device = mount, "%s (%s)" % (source, fstype)
    except OSError:
        pass
    return [
        "network: host loopback (127.0.0.1 UDP), no real link",
        "storage: state_dir under %s on %s; fsync is the device's own"
        % (os.path.relpath(OUT, ROOT), device),
        "host: %d cpus, python %s" % (
            os.cpu_count() or 0, sys.version.split()[0]
        ),
    ]


# -- one run of one workload -------------------------------------------


class _Phase:
    """Set a workload up, warm it, and time units on it."""

    def __init__(self, build, tag):
        import workloads

        self.failed = 0
        self.attempted = 0
        self.times = []
        self.crashed = False
        self.state_dir = os.path.join(
            OUT, "state", "%d-%s" % (os.getpid(), tag)
        )
        os.makedirs(self.state_dir, exist_ok=True)
        start = time.perf_counter()
        self.run = build(self.state_dir)
        self.setup_s = time.perf_counter() - start
        for index in range(workloads.WARMUP_UNITS):
            start = time.perf_counter()
            result = self.run.unit(index)
            self.setup_s += time.perf_counter() - start
            self.failed += self.run.observe(index, result)
        self.run.start_measuring()
        self.next_unit = workloads.WARMUP_UNITS
        gc.collect()

    def timed_unit(self, recorder=None, patcher=None):
        """One unit inside the timed region, its audit outside it.

        With a ``recorder`` the unit runs under the patch table, which
        is installed for the unit only: the audit that follows (and any
        other phase interleaved with this one) runs the program as is.
        """
        index = self.next_unit
        self.next_unit += 1
        self.attempted += self.run.tenants
        try:
            if recorder is None:
                start = time.perf_counter()
                result = self.run.unit(index)
                elapsed = time.perf_counter() - start
            else:
                patcher.install()
                try:
                    start = time.perf_counter()
                    with recorder.span(UNIT_SPAN):
                        result = self.run.unit(index)
                    elapsed = time.perf_counter() - start
                finally:
                    patcher.restore()
        except Exception:
            traceback.print_exc()
            self.failed += self.run.tenants
            self.crashed = True
            return None
        self.times.append(elapsed)
        self.failed += self.run.observe(index, result)
        return elapsed

    def finish(self):
        if not self.crashed:
            self.failed += self.run.finish()

    def close(self):
        self.run.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)
        gc.collect()


def _run_untraced(name, seed, seconds, scale):
    import workloads

    params = workloads.SCALES[scale][name]
    # The builder's contract asks for several set-ups per run and their
    # median; only the last one is measured on.
    setups = []
    phase = None
    for rep in range(params.get("setup_reps", SETUP_REPS)):
        if phase is not None:
            phase.close()
        phase = _Phase(
            lambda d: workloads.build(name, seed, scale, d), "u%d" % rep
        )
        setups.append(phase.setup_s)
    # Run length is fixed by count; ``seconds`` only stops a run on a
    # host too slow to finish it, and the output says when it did.
    while len(phase.times) < params["units"] and not phase.crashed:
        if sum(phase.times) >= seconds:
            break
        phase.timed_unit()
    rss_mb = _maxrss_mb()
    phase.finish()
    times = phase.times
    total = sum(times)
    overhead, in_deadline = phase.run.delivery_ratios()
    metrics = {
        "interval_ms_p50": statistics.median(times) * 1e3 if times else 0.0,
        "requests_per_s": phase.run.requests / total if total else 0.0,
        "bandwidth_overhead": overhead,
        "in_deadline_member_share": in_deadline,
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "units": len(times),
        "capped": not phase.crashed and len(times) < params["units"],
        "units_wanted": params["units"],
        "interval_ms_p90": _percentile(times, 0.9) * 1e3 if times else 0.0,
        "setups": len(setups),
    }
    phase.close()
    return {
        "correct": phase.failed == 0 and not phase.crashed and bool(times),
        "attempted": max(1, phase.attempted),
        "failed": phase.failed,
        "metrics": metrics,
        "notes": notes,
    }


def _run_traced(name, seed, scale):
    import layers
    import spans
    import workloads

    n_units = workloads.SCALES[scale][name]["trace_units"]

    def build(state_dir):
        return workloads.build(name, seed, scale, state_dir)

    # Up to three copies of the system replay the same prefix, taking
    # turns unit by unit so that a slow spell of this shared host hits
    # all of them alike: the key-server-only reference (ledger pairs
    # only), the workload as is, and the workload under the patch table.
    reference = None
    if name in workloads.LEDGER_PAIRS:
        reference = _Phase(
            lambda d: workloads.build_reference(name, seed, scale), "r"
        )
    plain = _Phase(build, "p")
    traced = _Phase(build, "t")
    recorder = spans.SpanRecorder()
    patcher = spans.Patcher(recorder, layers.PATCH_TABLE)
    lanes = [lane for lane in (reference, plain, traced) if lane is not None]
    pair = workloads.LEDGER_PAIRS.get(name)
    blamed_so_far = [0.0]  # the pair's span family, cumulative per unit
    for unit in range(n_units):
        turn = unit % len(lanes)
        for lane in lanes[turn:] + lanes[:turn]:
            if lane is traced:
                lane.timed_unit(recorder, patcher)
            else:
                lane.timed_unit()
        if any(lane.crashed for lane in lanes):
            break
        if pair is not None:
            blamed_so_far.append(
                layers.family_self_s(recorder.totals(), layers.FAMILIES[pair])
            )
    for lane in lanes:
        lane.finish()
    run_counts = traced.run.counts()
    plain_sequence = list(plain.run.sequence)
    traced_sequence = list(traced.run.sequence)
    for lane in lanes:
        lane.close()

    units = max(1, len(traced.times))
    totals = recorder.totals()
    root = totals.get(UNIT_SPAN, {"total_s": 0.0, "self_s": 0.0})
    paired = [
        (with_trace - without) / without
        for with_trace, without in zip(traced.times, plain.times)
    ]
    families = {
        family: layers.family_self_s(totals, prefixes)
        for family, prefixes in layers.FAMILIES.items()
    }
    bench = {
        "trace_overhead_share": statistics.median(paired) if paired else 0.0,
        "unattributed_share": (
            root["self_s"] / root["total_s"] if root["total_s"] else 0.0
        ),
        "missing_layers": len(patcher.missing),
        "ledger_gap_share": 0.0,
    }
    if len(blamed_so_far) > 1:
        # Medians of per-unit figures: a full-GC pause lands in one
        # lane's unit at random and would swamp a difference of means.
        difference = statistics.median(
            with_layer - without
            for with_layer, without in zip(plain.times, reference.times)
        )
        blamed = statistics.median(
            after - before
            for before, after in zip(blamed_so_far, blamed_so_far[1:])
        )
        bench["ledger_gap_share"] = (
            abs(difference - blamed) / difference if difference else 0.0
        )
    run_counts["interval_ms_p90"] = (
        _percentile(plain.times, 0.9) * 1e3 if plain.times else 0.0
    )
    metrics = layers.layer_values(
        totals, recorder.probes, units, run_counts, bench
    )
    unperturbed = plain_sequence == traced_sequence
    if not unperturbed:
        sys.stderr.write(
            "audit: the traced run's key/encryption sequence differs from "
            "the untraced run's: tracing perturbed the protocol\n"
        )
    failed = sum(lane.failed for lane in lanes)
    crashed = any(lane.crashed for lane in lanes)
    shares = {
        family: seconds / root["total_s"] if root["total_s"] else 0.0
        for family, seconds in families.items()
    }
    trace_path = os.path.join(OUT, "%s.trace.json" % name)
    document = recorder.to_dict()
    document.update(
        workload=name, seed=seed, scale=scale, units=units,
        missing_layers=patcher.missing, sequence=traced_sequence,
        family_share_of_unit=shares,
    )
    with open(trace_path, "w") as handle:
        json.dump(document, handle)
    return {
        "correct": failed == 0 and unperturbed and not crashed,
        "attempted": max(1, sum(lane.attempted for lane in lanes)),
        "failed": failed,
        "metrics": metrics,
        "notes": {
            "units": units,
            "missing_layers": patcher.missing,
            "family_share_of_unit": shares,
            "trace_file": os.path.relpath(trace_path, ROOT),
        },
    }


def _single(args):
    _import_program()
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(
            "error: unknown workload %r (have: %s)\n"
            % (args.workload, ", ".join(workloads.WORKLOADS))
        )
        return 2
    label = "" if args.scale == "full" else " [%s]" % args.scale
    if args.trace:
        result = _run_traced(args.workload, args.seed, args.scale)
        units = {n: spec[0] for n, spec in layers.PER_LAYER.items()}
    else:
        result = _run_untraced(
            args.workload, args.seed, args.seconds, args.scale
        )
        units = END_TO_END_UNITS
    notes = result.pop("notes")
    samples = notes["units"]
    print("== %s%s  seed %d  %s  closed loop, one load thread" % (
        args.workload, label, args.seed,
        "traced" if args.trace else "untraced",
    ))
    for line in _host_lines():
        print("   " + line)
    missing = set(notes.get("missing_layers", ()))
    for name, value in result["metrics"].items():
        print("%-42s %14.6g %-6s (n=%d)" % (name, value, units[name], samples))
    if not args.trace:
        print(
            "%-42s %14.6g %-6s (n=%d; ungated: full-GC pauses move it)"
            % ("service.daemon.interval_ms_p90", notes["interval_ms_p90"],
               "ms", samples)
        )
        if notes["capped"]:
            print("!! the --seconds cap stopped the run after %d of %d "
                  "units: it did less work than the benchmark defines, do "
                  "not compare it" % (samples, notes["units_wanted"]))
        failed_share = result["failed"] / result["attempted"]
        print("%-42s %14.6g %-6s (%d of %d)" % (
            "failed_share", failed_share, "ratio",
            result["failed"], result["attempted"],
        ))
        print("   times are raw wall-clock; setup_s is the median of %d "
              "set-up(s)" % notes["setups"])
    else:
        for family, share in notes["family_share_of_unit"].items():
            print("   %s-side self time: %.1f%% of the unit" % (
                family, share * 100))
        if missing:
            print("   missing layers (metrics read 0 = null): "
                  + ", ".join(sorted(missing)))
        print("   spans written to " + notes["trace_file"])
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, one after another ---------------------------------


def _everything(args):
    _import_program()
    import workloads

    results = {}
    status = 0
    for name in workloads.WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            command = [
                sys.executable, os.path.abspath(__file__),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--scale", args.scale,
            ]
            done = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, cwd=ROOT
            )
            lines = done.stdout.splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stdout.flush()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "error": "no result printed"}
            if done.returncode != 0 or not result.get("correct"):
                status = 1
                print("!! %s (trace %d) FAILED its audit or crashed" % (
                    name, trace))
            results[name]["per_layer" if trace else "end_to_end"] = result
    document = {
        # a benchmark definition measures; it claims no gain
        "claim": None,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": _host_lines(),
        "workloads": results,
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "results.json")
    with open(path, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print("\nresults (%s scale) written to %s; claim: null" % (
        args.scale, os.path.relpath(path, ROOT)))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, once")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=30.0,
        help="safety cap on an untraced run's summed unit time: run length "
             "is fixed by unit count, and a run the cap cuts short says so",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "smoke"), default="full",
        help="smoke: tiny sizes, 5 units each, for the tests; its "
             "numbers are labelled and never belong in BENCHMARK.json",
    )
    args = parser.parse_args(argv)
    if args.workload is None:
        return _everything(args)
    return _single(args)


if __name__ == "__main__":
    sys.exit(main())
