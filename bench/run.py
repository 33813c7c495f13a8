"""uebkit benchmark: one workload, end-to-end or traced per module.

    python3 bench/run.py --workload {g165,pauli-nice,cli-files}
                         [--seed 1650] [--seconds 20] [--trace 0|1]

Run from the root of a checkout.  Every round runs in a fresh
interpreter (bench/worker.py) that imports uebkit from ./src.  Rounds
repeat until --seconds have passed, at least one; each round runs the
workload's whole list of operations, so the share of failed operations
does not depend on the run length.  Untraced runs also measure set-up
in SETUP_PROBES extra processes that stop before the first check call.

--trace 0 reports the end-to-end metrics: medians over the rounds
(setup_s over rounds and probes).  --trace 1 reports the per-module
metrics of one traced round, run after the untraced rounds, and
trace_overhead_s, the traced check_s minus the untraced median; the
spans and counters go to bench/out/trace-<workload>-<seed>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit status 0 means the result was
printed; without a checkout (no src/uebkit) it is 2 and nothing is
printed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("g165", "pauli-nice", "cli-files")
SETUP_PROBES = 3
DEADLINE_S = 170


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, workload: str, seed: int, run_dir: str, deadline: float):
        self.workload, self.seed = workload, seed
        self.run_dir, self.deadline = run_dir, deadline
        self.count = 0

    def spawn(self, *extra: str) -> dict:
        """One worker process; its result document."""
        self.count += 1
        result = Path(self.run_dir) / f"result-{self.count}.json"
        tmp = Path(self.run_dir) / f"round-{self.count}"
        tmp.mkdir()
        argv = [sys.executable, str(HERE / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--tmp", str(tmp), "--result", str(result), *extra]
        left = self.deadline - _monotonic()
        if left <= 0:
            raise TimeoutError("no time left for another worker")
        launched = _monotonic()
        proc = subprocess.run(argv + ["--launched", repr(launched)],
                              stdin=subprocess.DEVNULL, stdout=sys.stderr,
                              timeout=left)
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with status {proc.returncode}")
        with open(result, encoding="utf-8") as f:
            doc = json.load(f)
        shutil.rmtree(tmp)
        return doc


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1650)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "uebkit" / "__init__.py").is_file():
        print(f"run.py: no uebkit sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = _monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        runner = Runner(args.workload, args.seed, run_dir, deadline)
        probes = [] if args.trace else \
            [runner.spawn("--setup-only") for _ in range(SETUP_PROBES)]
        rounds = []
        start = _monotonic()
        while not rounds or _monotonic() - start < args.seconds:
            rounds.append(runner.spawn())
        traced = None
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
            traced = runner.spawn("--trace", str(trace_file))
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    measured = rounds + ([traced] if traced else [])
    ops = [op for r in measured for op in r["ops"]]
    failed = [op for op in ops
              if not op["ok"] or op["error"] or op["problems"]]
    for op in failed:
        print(f"FAILED {op['name']}: error={op['error']} "
              f"problems={op['problems'][:4]}", file=sys.stderr)
    check_s = statistics.median(r["check_s"] for r in rounds)
    if traced:
        metrics = {k: _metric(v, u) for k, (v, u) in traced["layers"].items()}
        metrics["trace_overhead_s"] = _metric(traced["check_s"] - check_s, "s")
        print(f"trace written to {trace_file.relative_to(ROOT)}",
              file=sys.stderr)
    else:
        metrics = {
            "setup_s": _metric(statistics.median(
                r["setup_s"] for r in probes + rounds), "s"),
            "check_s": _metric(check_s, "s"),
            "cpu_s": _metric(statistics.median(r["cpu_s"] for r in rounds),
                             "s"),
            "peak_rss_mib": _metric(statistics.median(
                r["peak_rss_mib"] for r in rounds), "MiB"),
        }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not any(op["problems"] for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
