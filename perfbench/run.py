"""End-to-end and per-layer benchmark of the hamcirc command line.

    python3 perfbench/run.py --workload census --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py          # every workload, untraced then traced

Run from the repository root; hamcirc is imported from ./src.  Each
workload runs in a fresh worker process (worker.py) that calls
hamcirc.cli.main in-process, one command at a time, and checks every
output.  setup_s is the median, over six fresh workers, of the time from
spawning the interpreter until the worker has imported hamcirc, generated
its inputs and run its warm-up commands; a seventh spawn before them is
discarded because it compiles the bytecode.  With --trace 1 the worker
wraps hamcirc's public functions and reports per-layer metrics instead.
Times are scaled to a reference CPU speed (see speed.py); the raw values
are printed beside them.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import selectors
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
SETUP_SAMPLES = 5  # plus the measuring worker's own start
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc, start


def _setup_time(proc, start: float, deadline: float) -> tuple[float, float]:
    """Seconds from spawn to the worker's ``ready`` line, less the time its
    speed sampler took: raw and at the reference speed."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(0.0, deadline - perf_counter())):
            raise BenchError("worker did not become ready in time")
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    word, *fields = line.split() or [""]
    if word != "ready" or len(fields) != 2:
        raise BenchError(f"worker failed during set-up (got {line.strip()!r})")
    paused, reference = map(float, fields)
    raw = elapsed - paused
    return raw, raw * NOMINAL_S / reference


def _finish(proc, deadline: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    setup: list[tuple[float, float]] = []  # (raw, at reference speed)
    if not trace:
        for i in range(SETUP_SAMPLES + 1):
            proc, start = _spawn(workload, seed, seconds, trace, setup_only=True)
            try:
                sample = _setup_time(proc, start, deadline)
                _finish(proc, deadline)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            if i:
                setup.append(sample)
    proc, start = _spawn(workload, seed, seconds, trace, setup_only=False)
    try:
        setup.append(_setup_time(proc, start, deadline))
        out = _finish(proc, deadline)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    record = json.loads(out.strip().splitlines()[-1])
    if not trace:
        record["raw"]["setup_s"] = statistics.median(raw for raw, _ in setup)
        record["metrics"]["setup_s"] = statistics.median(scaled for _, scaled in setup)
    return record


def _report(workload: str, record: dict) -> None:
    for name, value in record["metrics"].items():
        raw = record["raw"][name]
        print(f"{workload:17s} {name:46s} {value:14.6g} {UNITS[name]:6s} (raw {raw:.6g})")
    print(f"{workload:17s} {'speed factor (raw time x factor)':46s} {record['speed_factor']:14.6g}")
    attempted, failed = record["attempted"], record["failed"]
    print(
        f"{workload:17s} {'latency samples':46s} {record['samples']:14d} "
        f"{'words' if workload == 'census' else 'rounds'}"
    )
    print(f"{workload:17s} {'failed_frac':46s} {failed / attempted:14.6g} ({failed}/{attempted} commands)")
    print(f"{workload:17s} {'correct':46s} {str(record['correct']):>14s}")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hamcirc" / "__init__.py").is_file():
        print(f"error: run from a hamcirc checkout; {ROOT / 'src' / 'hamcirc'} is missing", file=sys.stderr)
        return 2

    try:
        if args.workload != "all":
            record = run_workload(args.workload, args.seed, args.seconds, args.trace)
            _report(args.workload, record)
            print(json.dumps({
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    k: {"value": v, "unit": UNITS[k]} for k, v in record["metrics"].items()
                },
            }))
            return 0 if record["correct"] else 1

        ok = True
        for name in names:
            plain = run_workload(name, args.seed, args.seconds, 0)
            traced = run_workload(name, args.seed, args.seconds, 1)
            _report(name, plain)
            _report(name, traced)
            base = plain["metrics"]["units_per_s"]
            overhead = (base - traced["metrics"]["trace.units_per_s"]) / base
            print(f"{name:17s} {'tracing overhead (units_per_s)':46s} {overhead:14.3%}")
            ok = ok and plain["correct"] and traced["correct"]
        return 0 if ok else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
