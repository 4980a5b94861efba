"""Run one workload in this fresh process, calling hamcirc.cli.main in-process.

    python3 perfbench/worker.py --workload census --seed 0 --seconds 10 --trace 0

Prints ``ready <paused> <reference>`` once hamcirc is imported, the inputs
are generated and the warm-up commands have run: the seconds its speed
sampler has taken so far and the median reference-loop time (speed.py).
It then measures whole blocks until their summed command time reaches
``--seconds`` and the workload's minimum item count.  Meanwhile a timer
signal samples the host's speed, and each command's time is scaled to the
reference speed.  The last stdout line is a JSON record that ``run.py``
turns into the benchmark's result.  With ``--setup-only``
it exits right after ``ready``.  Exits 2 when ``src/hamcirc`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from speed import NOMINAL_S, SETUP_INTERVAL_S, SpeedMeter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def run_cli(main, argv, meter=None):
    """Exit code, stdout, stderr, start time and seconds taken, less the
    time ``meter`` spent sampling in between."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        paused = meter.paused if meter else 0.0
        code = main(argv)
        paused = (meter.paused if meter else 0.0) - paused
        end = perf_counter()
    return code, out.getvalue(), err.getvalue(), start, end - start - paused


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summary(units: int, latencies: list[float], peak_rss_mb: float) -> dict[str, float]:
    return {
        "units_per_s": units / sum(latencies),
        "unit_p50_ms": statistics.median(latencies) * 1000,
        "unit_p99_ms": percentile(latencies, 99) * 1000,
        "peak_rss_mb": peak_rss_mb,
    }


def main() -> int:
    with SpeedMeter(SETUP_INTERVAL_S) as setup_meter:
        prepared = prepare()
    if isinstance(prepared, int):
        return prepared
    args, cli, wl = prepared
    reference = statistics.median(setup_meter.samples) if setup_meter.samples else NOMINAL_S
    print(f"ready {setup_meter.paused} {reference}", flush=True)
    if args.setup_only:
        wl.close()
        return 0
    return measure(args, cli, wl)


def prepare():
    """Import hamcirc, build the workload and run its warm-up commands.
    Returns (args, cli module, workload), or an exit code on failure."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "hamcirc" / "__init__.py").is_file():
        print(f"error: no hamcirc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in ("HAMCIRC_ORBIT_CAP", "HAMCIRC_ENUM_BUDGET"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))

    import hamcirc.cli as cli
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported hamcirc from {cli.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT)
    for argv in wl.warmup():
        code, _out, err, _start, _t = run_cli(cli.main, argv)
        if code != 0:
            wl.close()
            print(f"error: warm-up {argv} exited {code}: {err}", file=sys.stderr)
            return 1
    return args, cli, wl


def measure(args, cli, wl) -> int:
    """The timed phase, then the checks made outside it; prints the record."""
    from tracing import PER_LAYER as UNITS, Tracer
    from workloads import CheckFailed, Result

    try:
        tracer = Tracer() if args.trace else None
        if tracer:
            tracer.install()
        attempted = failed = units = 0
        busy = 0.0
        latencies: list[float] = []  # raw seconds per item
        commands: list[tuple[int, float, float]] = []  # item, start, seconds
        problems: list[str] = []
        with SpeedMeter() as meter:
            for block in wl.blocks():
                for item in block:
                    results, item_s = [], 0.0
                    for argv in item.argvs:
                        if tracer:
                            tracer.command += 1
                        code, out, err, start, elapsed = run_cli(cli.main, argv, meter)
                        results.append(Result(code, out, err))
                        commands.append((len(latencies), start, elapsed))
                        item_s += elapsed
                    attempted += len(results)
                    busy += item_s
                    latencies.append(item_s)
                    try:
                        units += item.check(results)
                    except CheckFailed as exc:
                        failed += len(results)
                        problems.append(str(exc))
                if busy >= args.seconds and len(latencies) >= wl.min_items:
                    break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
        problems += wl.final_checks()
    finally:
        wl.close()

    scaled = [0.0] * len(latencies)
    for idx, start, elapsed in commands:
        scaled[idx] += elapsed * meter.factor(start, start + elapsed)
    factor = sum(scaled) / busy
    if tracer:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        raw = tracer.metrics(units / busy)
        metrics = {k: v * {"s": factor, "1/s": 1 / factor}.get(UNITS[k], 1) for k, v in raw.items()}
    else:
        raw = summary(units, latencies, peak_rss_mb)
        metrics = summary(units, scaled, peak_rss_mb)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    record = {
        "correct": not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "samples": len(latencies),
        "speed_factor": factor,
        "metrics": metrics,
        "raw": raw,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
