"""End-to-end distributed-tracing smoke test (the ``trace`` entry of the
CI ``smoke`` job).

Runs ``python -m repro fleet --plan smoke --workers 2 --obs-dir`` as a
real subprocess — three rekey intervals over loopback UDP with the 48
clients sharded across two worker processes, each process writing its
own line-buffered obs stream — then:

1. validates every stream (server + both workers) against the obs
   event schema;
2. assembles the streams into skew-corrected per-member timelines and
   checks every member the announce barrier counted has a *complete*
   timeline (announce → decode → key decrypted);
3. runs ``python -m repro obs-report --trace-dir`` over the directory
   and checks the trace section renders (timelines, clock offsets, the
   per-cohort recovery-latency CDF).

Exit status 0 on success; any failure raises (non-zero exit).

Usage::

    PYTHONPATH=src python scripts/trace_smoke.py [--seed 7]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from repro.obs.assemble import assemble, load_trace_dir  # noqa: E402
from repro.obs.events import validate_jsonl  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

    with tempfile.TemporaryDirectory(prefix="trace-smoke-") as tmp:
        command = [
            sys.executable, "-u", "-m", "repro", "fleet",
            "--plan", "smoke",
            "--seed", str(args.seed),
            "--workers", str(args.workers),
            "--obs-dir", tmp,
        ]
        fleet = subprocess.run(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO,
        )
        sys.stdout.write(fleet.stdout)
        if fleet.returncode != 0:
            raise SystemExit("fleet exited with %d" % fleet.returncode)

        streams = load_trace_dir(tmp)
        expected_streams = {"server.jsonl"} | {
            "worker-%02d.jsonl" % index for index in range(args.workers)
        }
        if set(streams) != expected_streams:
            raise SystemExit(
                "expected streams %s, found %s"
                % (sorted(expected_streams), sorted(streams))
            )
        for name in sorted(streams):
            count = validate_jsonl(os.path.join(tmp, name))
            print("validated %-16s %d event(s)" % (name, count))
            if count == 0:
                raise SystemExit("stream %s is empty" % name)

        assembly = assemble(streams)
        incomplete = assembly.incomplete()
        if incomplete:
            raise SystemExit(
                "%d incomplete timeline(s), e.g. %r"
                % (len(incomplete), incomplete[0].canonical())
            )
        for interval, row in sorted(assembly.completeness().items()):
            print(
                "interval %d: %d/%d members traced, %d complete"
                % (interval, row["seen"], row["expected"], row["complete"])
            )
            if row["seen"] != row["expected"]:
                raise SystemExit(
                    "interval %d traced %d of %d announced members"
                    % (interval, row["seen"], row["expected"])
                )
            if row["complete"] != row["expected"]:
                raise SystemExit(
                    "interval %d has incomplete timelines" % interval
                )
        print("trace digest: %s" % assembly.digest())

        report = subprocess.run(
            [
                sys.executable, "-m", "repro", "obs-report",
                "--trace-dir", tmp,
            ],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        sys.stdout.write(report.stdout)
        if report.returncode != 0:
            sys.stderr.write(report.stderr)
            raise SystemExit(
                "obs-report exited with %d" % report.returncode
            )
        for needle in (
            "distributed traces",
            "clock offsets",
            "trace digest",
            "recovery-latency CDF per cohort",
        ):
            if needle not in report.stdout:
                raise SystemExit("obs-report output missing %r" % needle)

    print("trace smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
