"""End-to-end observability smoke test (the ``obs`` entry of the CI
``smoke`` job).

Launches ``python -m repro serve`` as a real subprocess with the full
observability surface on — an ephemeral ``--metrics-port`` and an
``--obs-file`` — then, while the daemon is rekeying:

1. scrapes ``/metrics`` and checks the Prometheus exposition parses and
   carries the expected families;
2. probes ``/healthz`` and checks the JSON body;

and after the daemon exits:

3. validates every JSONL record against the obs event schema;
4. runs ``python -m repro obs-report`` over the file and checks the
   headline lines are present.

Exit status 0 on success; any failure raises (non-zero exit).

Usage::

    PYTHONPATH=src python scripts/obs_smoke.py [--intervals 4]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from repro.obs.events import read_events, validate_jsonl  # noqa: E402
from repro.obs.prometheus import parse  # noqa: E402

_URL_RE = re.compile(r"metrics: (http://[^/\s]+)/metrics")


def scrape(base_url, deadline_s=15.0):
    """Scrape both endpoints until each succeeds once (or time out)."""
    results = {}
    deadline = time.monotonic() + deadline_s
    while len(results) < 2 and time.monotonic() < deadline:
        for path in ("/metrics", "/healthz"):
            if path in results:
                continue
            try:
                with urllib.request.urlopen(
                    base_url + path, timeout=2
                ) as response:
                    results[path] = response.read().decode("utf-8")
            except (urllib.error.URLError, OSError):
                pass
        time.sleep(0.05)
    missing = {"/metrics", "/healthz"} - set(results)
    if missing:
        raise SystemExit("never scraped %s on %s" % (missing, base_url))
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--intervals", type=int, default=4)
    parser.add_argument("--members", type=int, default=24)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="obs-smoke-") as tmp:
        obs_path = os.path.join(tmp, "obs.jsonl")
        command = [
            sys.executable, "-u", "-m", "repro", "serve",
            "--members", str(args.members),
            "--intervals", str(args.intervals),
            "--transport", "sim",
            "--metrics-port", "0",
            "--obs-file", obs_path,
            "--interval-seconds", "0.4",
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=REPO,
        )
        try:
            base_url = None
            for line in process.stdout:
                sys.stdout.write(line)
                match = _URL_RE.search(line)
                if match:
                    base_url = match.group(1)
                    break
            if base_url is None:
                raise SystemExit("serve never printed its metrics URL")

            results = scrape(base_url)

            families = parse(results["/metrics"])
            for family in (
                "repro_up",
                "repro_intervals_processed_total",
                "repro_members",
                "repro_span_ms",
            ):
                if family not in families:
                    raise SystemExit(
                        "scrape is missing family %r" % family
                    )
            print("scraped /metrics: %d families" % len(families))
            if '"status"' not in results["/healthz"]:
                raise SystemExit(
                    "healthz body looks wrong: %r" % results["/healthz"]
                )
            print("scraped /healthz: %s" % results["/healthz"].strip())

            for line in process.stdout:
                sys.stdout.write(line)
            if process.wait(timeout=120) != 0:
                raise SystemExit(
                    "serve exited with %d" % process.returncode
                )
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()

        count = validate_jsonl(obs_path)
        print("validated %d obs event(s)" % count)
        if count == 0:
            raise SystemExit("obs file is empty")
        events = read_events(obs_path)
        completes = [
            e for e in events if e["kind"] == "interval_complete"
        ]
        if len(completes) != args.intervals:
            raise SystemExit(
                "expected %d interval_complete events, got %d"
                % (args.intervals, len(completes))
            )

        report = subprocess.run(
            [sys.executable, "-m", "repro", "obs-report", obs_path],
            capture_output=True, text=True, env=env, cwd=REPO,
        )
        sys.stdout.write(report.stdout)
        if report.returncode != 0:
            raise SystemExit(
                "obs-report exited with %d" % report.returncode
            )
        for needle in ("headline", "rho trajectory", "where the time goes"):
            if needle not in report.stdout:
                raise SystemExit("obs-report output missing %r" % needle)

    print("obs smoke test passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
