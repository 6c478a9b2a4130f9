"""Run one benchmark workload, or all three, and print its metrics.

    python3 perfbench/run.py --workload sim_storm --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 1

Run from the root of a checkout: the program under test is imported
from ``src/`` next to this directory.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print every metric by name with
its unit, the run's notes and, with ``--trace 1``, the per-layer table.
The exit code is 0 when every output check passed, 1 when one failed
and 2 when the program under test cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim_storm", "service_live", "service_quiet")


def prepare() -> bool:
    """Pin BLAS threads and put ``src/`` on the import path.

    Returns ``False`` when the checkout holds no ``src/repro`` package.
    Must run before numpy is imported.
    """
    threads = str(min(2, os.cpu_count() or 1))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = threads
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    return True


def run_one(
    workload: str, seed: int, seconds: float, trace: bool, sizes: Optional[Any] = None
) -> Dict[str, Any]:
    """Run one workload in this process; returns the result object.

    ``sizes`` (a :class:`workloads.Sizes`) defaults to the benchmark's.
    """
    import workloads

    sizes = sizes if sizes is not None else workloads.Sizes()

    workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if workload == "sim_storm":
            outcome = workloads.run_sim_storm(seed, seconds, trace, sizes)
        else:
            outcome = workloads.run_service(workload, seed, seconds, trace, str(workdir), sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still works there
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    print(f"workload {workload} seed {seed} trace {int(trace)}")
    for note in outcome.notes:
        print(note)
    for failure in outcome.failures:
        print(f"CHECK FAILED: {failure}")
    for name, unit in units.items():
        print(f"  {name:<34} {outcome.metrics[name]:>16.6f} {unit}")
    if outcome.tracer is not None:
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{workload}-seed{seed}.json"
        outcome.tracer.write(str(path))
        print(f"spans written to {path.relative_to(ROOT)}")
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    results: Dict[str, Any] = {}
    status = 0
    for workload in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(int(trace)),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = completed.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            results[workload] = json.loads(lines[-1])
        except (json.JSONDecodeError, IndexError):
            results[workload] = None
        if completed.returncode != 0 or results[workload] is None:
            status = 1
        print()
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"no program under test: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
