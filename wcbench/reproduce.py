"""Re-run the recorded gate-failure reproducers from `baseline.json`.

    python3 wcbench/reproduce.py

For each reproducer: generates the recorded grid, solves the recorded query
with all four algorithms (default options, the workload's queue), runs the
correctness gate and prints each verdict. Exits 0 when the gate still rejects
every recorded solve, 1 when one no longer fails (its record is out of date).
"""

import json
import os
import shutil
import sys
import tempfile

from run import import_program

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    import_program()
    import bench
    import roadgrid
    from gate import Solve, check_query
    from wcspp.graph import ProblemInstance, load_dimacs
    from wcspp.solvers import SOLVERS, SolveOptions
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        records = json.load(fh)["reproducers"]
    os.makedirs(bench.WORK, exist_ok=True)
    status = 0
    for rec in records:
        workload = WORKLOADS[rec["workload"]]
        work = tempfile.mkdtemp(prefix="reproducer-", dir=bench.WORK)
        try:
            files = roadgrid.write_dimacs(work, rec["grid_seed"], rec["rows"], rec["cols"])
            graph = load_dimacs(files["cost1"], files["cost2"],
                                files["coords"] if workload.coords else None)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        start, goal, w = rec["start"], rec["goal"], rec["W"]
        inst = ProblemInstance(start, goal, w)
        cfg = bench.queue_config(workload)
        solves = [Solve(0, name, start, goal, w, 0.0,
                        outcome=solver(graph, inst, cfg, SolveOptions()))
                  for name, solver in SOLVERS.items()]
        verdicts = check_query(graph, solves)
        print(f"{rec['workload']} grid seed {rec['grid_seed']}: {start} -> {goal}, W={w}")
        for s in solves:
            print(f"  {s.algorithm:12s} {s.status} {s.costs}: {verdicts[s.algorithm] or 'pass'}")
        if verdicts[rec["algorithm"]] is None:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
