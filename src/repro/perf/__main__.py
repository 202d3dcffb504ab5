"""``python -m repro.perf`` — golden fingerprint checks from the command line."""

from repro.perf.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
