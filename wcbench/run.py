"""wcspp benchmark entry point.

    python3 wcbench/run.py --workload road-mid --seed 1 --seconds 25 --trace 0

Three closed-loop workloads over a seeded 100 x 100 road grid (`workloads.py`,
`roadgrid.py`). One client in one process sends queries one after another;
each query is solved by all four algorithms with default options, and every
solve is checked by the gate in `gate.py` outside the timed region.

`--trace 0` solves the seed's whole query set once and then repeats it until
`--seconds` have passed, and prints the end-to-end metrics: set-up time
(median of repeated set-ups), solve latency median and tail (each distinct
solve at the median of its repeats), throughput over every timed solve, peak
RSS and the per-algorithm medians. Times are scaled to a fixed
machine speed by `bench.SpeedProbe`; the raw wall-clock figures are printed on
an `info wall-clock` line. `--trace 1` solves a fixed query set, so its counts
repeat exactly (`--seconds` does not apply), first untraced and then with the
wrappers of `tracer.py`, and prints per-layer metrics, the tracing overhead
and any disagreement with the program's own counters.

Every metric is printed by name with its unit, every failing solve on a FAIL
line, and the last line of standard output is one JSON object: `attempted`
and `failed` count distinct solves (query x algorithm; a wrong answer, an
exception, a timeout or a repeat that answers differently fails a solve), so
they depend on the seed only, not on the machine's speed, and `correct` is
false when the traced counts disagree with the program's counters. The program is imported from this checkout's `src` only;
without it the run exits non-zero before printing a result.
"""

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def parse_args(argv=None):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> None:
    """Put this checkout's `src` first on the path and make sure wcspp comes from it."""
    if not os.path.isfile(os.path.join(SRC, "wcspp", "__init__.py")):
        raise SystemExit(f"error: no wcspp sources under {SRC}")
    sys.path.insert(0, SRC)
    import wcspp
    if os.path.dirname(os.path.abspath(wcspp.__file__)) != os.path.join(SRC, "wcspp"):
        raise SystemExit(f"error: imported wcspp from {wcspp.__file__}, not from {SRC}")


if __name__ == "__main__":
    arguments = parse_args()
    import_program()
    import bench
    sys.exit(bench.main(arguments.workload, arguments.seed, arguments.seconds,
                        bool(arguments.trace)))
