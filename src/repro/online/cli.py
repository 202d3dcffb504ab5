"""``python -m repro.online`` — drive the daemon from the command line.

Two subcommands:

``synth``
    Generate a Poisson/Zipf arrival stream and run it through the
    daemon::

        python -m repro.online synth --jobs 50 --rate 0.02 --procs 16

``swf``
    Replay a Standard Workload Format trace file::

        python -m repro.online swf trace.swf --procs 64 --max-jobs 200

Both accept ``--differential`` (run the cold-rebuild oracle per event and
fail on any bit-level mismatch), admission knobs, and ``--json`` to dump
the report. Exit status is 1 when the differential check fails and 2
when the trace is rejected or a file cannot be read.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.cluster import Cluster
from repro.exceptions import ScheduleError
from repro.online.admission import AdmissionPolicy
from repro.online.arrivals import poisson_zipf_stream
from repro.online.daemon import OnlineSchedulerDaemon
from repro.online.jobs import Job
from repro.online.swf import jobs_from_swf

__all__ = ["main"]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--procs", type=int, default=16, help="cluster size P")
    parser.add_argument(
        "--bandwidth", type=float, default=1e8, help="link bandwidth (B/s)"
    )
    parser.add_argument(
        "--differential", action="store_true",
        help="replay every placement through the cold-rebuild oracle",
    )
    parser.add_argument(
        "--max-width", type=int, default=None,
        help="admission: reject jobs wider than this",
    )
    parser.add_argument(
        "--max-pending", type=int, default=None,
        help="admission: reject once this many jobs wait",
    )
    parser.add_argument(
        "--max-backlog", type=float, default=None,
        help="admission: defer while the chart runs this far ahead (s)",
    )
    parser.add_argument(
        "--json", type=str, default=None, help="write the report to this file"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.online",
        description="event-driven online scheduler daemon",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthetic Poisson/Zipf stream")
    synth.add_argument("--jobs", type=int, default=50)
    synth.add_argument(
        "--rate", type=float, default=0.02, help="arrivals per simulated second"
    )
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--zipf-s", type=float, default=1.5)
    _add_common(synth)

    swf = sub.add_parser("swf", help="replay an SWF trace file")
    swf.add_argument("trace", type=str, help="path to the .swf file")
    swf.add_argument("--max-jobs", type=int, default=None)
    _add_common(swf)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ScheduleError, OSError) as exc:
        # a rejected trace or an unreadable file is the user's input, not
        # a crash: one line on stderr, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    cluster = Cluster(args.procs, bandwidth=args.bandwidth)
    if args.command == "synth":
        jobs: List[Job] = poisson_zipf_stream(
            n_jobs=args.jobs, rate=args.rate, seed=args.seed, zipf_s=args.zipf_s
        )
    else:
        with open(args.trace, "r", encoding="utf-8") as fh:
            jobs = jobs_from_swf(fh, cluster, max_jobs=args.max_jobs)

    admission = AdmissionPolicy(
        max_width=args.max_width,
        max_pending=args.max_pending,
        max_backlog=args.max_backlog,
    )
    daemon = OnlineSchedulerDaemon(
        cluster, admission=admission, differential=args.differential
    )
    report = daemon.run(jobs)
    doc = report.to_dict()
    print(
        f"submitted={doc['submitted']} placed={doc['placed']} "
        f"rejected={doc['rejected']} makespan={doc['makespan']:.1f}s "
        f"util={doc['utilization']:.2%}"
    )
    print(
        f"throughput: {doc['submissions_per_sim_hour']:.0f} submissions/"
        f"sim-hour; event p95 {doc['event_latency']['p95'] * 1e3:.3f} ms"
    )
    if args.differential:
        status = "IDENTICAL" if doc["identical"] else "MISMATCH"
        speedup = doc["median_speedup"]
        speedup_s = f"{speedup:.2f}x" if speedup else "n/a"
        print(
            f"differential: {status}; incremental vs cold median "
            f"speedup {speedup_s}; probes {doc['probes']}"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    if args.differential and not doc["identical"]:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
