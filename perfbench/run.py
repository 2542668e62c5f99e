#!/usr/bin/env python3
"""fracadrc benchmark: one workload per process, or all three in turn.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, untraced
    python3 perfbench/run.py --workload long-horizon --seed 3 --seconds 20
    python3 perfbench/run.py --workload design-sweep --trace 1

With `--trace 0` a run reports the end-to-end metrics; with `--trace 1` it
first times untraced iterations, then traced ones, and reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See perfbench/README.md for what each workload and
metric means.
"""

from __future__ import annotations

import os

# sector_test's eigen-solve may otherwise start OpenBLAS threads; pinned
# before numpy is imported here or in any child process
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("reproduce-all", "long-horizon", "design-sweep")
SETUP_PROBES = 5
WORK_ROOT = ".perfbench_work"

# the end-to-end metric each seeded workload exists to move; reproduce-all's
# headline is the time of one `reproduce all`, printed as reproduce_all_s
HEADLINE = {"long-horizon": "sim_steps_per_s",
            "design-sweep": "configs_per_s"}


def import_program() -> None:
    """Import fracadrc from ./src; exit with an error when it is absent."""
    src = Path.cwd() / "src"
    if not (src / "fracadrc" / "__init__.py").is_file():
        raise SystemExit("perfbench: src/fracadrc not found; run from the "
                         "root of a fracadrc checkout")
    sys.path.insert(0, str(src))
    import fracadrc  # noqa: F401


def _git_commit() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"host": platform.node(), "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "nproc_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "git_commit": _git_commit()}


def setup_probe(args) -> int:
    """Child process body: import the program, build the inputs, report
    the host-speed samples taken meanwhile."""
    sys.path.insert(0, str(HERE))
    import hostspeed
    sampler = hostspeed.Sampler()
    sampler.start()
    import_program()
    import workloads
    workloads.make(args.workload, args.seed, Path(WORK_ROOT) / "probe")
    sampler.stop()
    print("ready " + json.dumps(sampler.samples), flush=True)
    return 0


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall time from starting a fresh interpreter until it has imported
    fracadrc and built the workload's inputs, SETUP_PROBES times: as
    measured, and normalized to reference host speed."""
    import hostspeed

    walls, normalized = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe failed: {cmd}")
        walls.append(t1 - t0)
        normalized.append(hostspeed.normalize(t1 - t0, json.loads(line[6:])))
    return walls, normalized


def merge_ops(into: dict, ops: dict) -> None:
    """Operation -> failed: an operation fails if it failed anywhere."""
    for op, failed in ops.items():
        into[op] = into.get(op, False) or failed


class Totals:
    def __init__(self):
        self.times: list[float] = []
        self.normalized: list[float] = []  # at reference host speed
        self.steps = 0
        self.configs = 0
        self.ops: dict[str, bool] = {}  # operation -> failed in any iteration
        self.check_failures = 0
        self.artifacts = 0
        self.bytes_changed = 0
        self.notes: list[str] = []

    def add(self, seconds: float, outcome, normalized=None) -> None:
        self.times.append(seconds)
        if normalized is not None:
            self.normalized.append(normalized)
        self.steps += outcome.steps
        self.configs += outcome.configs
        merge_ops(self.ops, outcome.ops)
        self.check_failures += outcome.check_failures
        self.artifacts += outcome.artifacts
        self.bytes_changed += outcome.bytes_changed
        if not self.notes:
            self.notes = list(outcome.notes)


def measure(workload, ref, seconds: float, totals: Totals,
            tracer=None, sampler=None) -> None:
    """Run iterations for at most `seconds` of wall time, judging by the
    last iteration whether another one still fits, and always at least one.
    Only `run` is timed; preparing, checking and deleting the iteration's
    output, and collecting its garbage, are not.  With a host-speed
    sampler, each iteration's time is also normalized to reference speed."""
    import hostspeed

    start = time.perf_counter()
    while not totals.times \
            or time.perf_counter() - start + totals.times[-1] <= seconds:
        workload.prepare()
        if tracer is not None:
            tracer.install()
        if sampler is not None:
            mark = len(sampler.samples)
            sampler.start()
        t0 = time.perf_counter()
        try:
            result = workload.run()
        except Exception as exc:  # counted as failed operations below
            traceback.print_exc()
            result = exc
        elapsed = time.perf_counter() - t0
        normalized = None
        if sampler is not None:
            sampler.stop()
            normalized = hostspeed.normalize(elapsed, sampler.samples[mark:])
        if tracer is not None:
            tracer.uninstall()
        outcome = workload.check(result, ref)
        del result
        workload.cleanup()
        # a stored exception's traceback keeps its frame's arrays alive in a
        # cycle; collecting here keeps that out of the next timed iteration
        # and out of peak RSS
        gc.collect()
        totals.add(elapsed, outcome, normalized)


def tail_sum_ns(history: int) -> float:
    """ns per GLOperator.tail_sum call with `history` samples, alone."""
    import numpy as np
    from fracadrc import fracops

    gl = fracops.GLOperator(0.8, 1.0 / 8000.0)
    for x in np.random.default_rng(0).standard_normal(history):
        gl.push(float(x))
    calls = max(20, 4_000_000 // history)
    blocks = []
    for _ in range(7):
        t0 = time.perf_counter()
        for _ in range(calls):
            gl.tail_sum()
        blocks.append((time.perf_counter() - t0) / calls)
    return statistics.median(blocks) * 1e9


def sector_test_ms(mu: float) -> tuple[int, float]:
    """(degree, ms per sector_test) at the default bench parameters."""
    from fracadrc import experiments, stability

    p = experiments.DEFAULT_PARAMS
    num, den = stability.rationalize_order(mu)
    poly = stability.build_char_poly(p["b"], p["b_o"], p["a_o"], p["K"],
                                     2.0 * p["omega_o"], p["omega_o"] ** 2,
                                     num, den)
    calls = 1 if poly.degree > 100 else 50
    blocks = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            stability.sector_test(poly)
        blocks.append((time.perf_counter() - t0) / calls)
    return poly.degree, statistics.median(blocks) * 1e3


def layer_metrics(tracer, traced: Totals, untraced: Totals) -> dict:
    """Per-layer metrics, per traced iteration."""
    n = len(traced.times)
    c = tracer.counters

    def per(value):
        return value / n

    tail_self = tracer.self_seconds("fracops.tail_sum")
    macs = per(c.get("fracops.tail_sum.macs", 0))
    steps = per(c.get("control.steps", 0))
    loop_self = per(tracer.self_seconds("control.loop"))
    values = {
        "fracops.tail_sum.calls": per(tracer.calls("fracops.tail_sum")),
        "fracops.tail_sum.macs": macs,
        "fracops.tail_sum.self_s": per(tail_self),
        "fracops.tail_sum.gmac_per_s":
            macs / per(tail_self) / 1e9 if tail_self else 0.0,
        "plant.step.calls": per(tracer.calls("plant.step")),
        "plant.step.self_s": per(tracer.self_seconds("plant.step")),
        "observers.loop_step.calls": per(tracer.calls("observers.loop_step")),
        "observers.loop_step.self_s":
            per(tracer.self_seconds("observers.loop_step")),
        "control.runs": per(c.get("control.runs", 0)),
        "control.steps": steps,
        "control.diverged": per(c.get("control.diverged", 0)),
        "control.loop.self_s": loop_self,
        "control.loop.ns_per_step": loop_self / steps * 1e9 if steps else 0.0,
        "control.to_csv.self_s": per(tracer.self_seconds("control.to_csv")),
        "control.to_csv.bytes": per(c.get("control.to_csv.bytes", 0)),
        "control.from_csv.self_s":
            per(tracer.self_seconds("control.from_csv")),
        "control.from_csv.bytes": per(c.get("control.from_csv.bytes", 0)),
        "stability.sector_test.calls":
            per(tracer.calls("stability.sector_test")),
        "stability.sector_test.self_s":
            per(tracer.self_seconds("stability.sector_test")),
        "stability.poly_roots.self_s":
            per(tracer.self_seconds("stability.poly_roots")),
        "stability.degree_max": c.get("stability.degree_max", 0),
        "stability.gated_out": per(c.get("stability.gated_out", 0)),
        "freqdom.curves.calls": per(tracer.calls("freqdom.curves")),
        "freqdom.curves.self_s": per(tracer.self_seconds("freqdom.curves")),
        "freqdom.write_csv.self_s":
            per(tracer.self_seconds("freqdom.write_csv")),
        "experiments.run_experiment.self_s":
            per(tracer.self_seconds("experiments.run_experiment")),
        "experiments.summarize.self_s":
            per(tracer.self_seconds("experiments.summarize")),
        "experiments.step_metrics.self_s":
            per(tracer.self_seconds("experiments.step_metrics")),
        "experiments.artifacts": per(traced.artifacts),
        "experiments.artifacts_bytes_changed": per(traced.bytes_changed),
        "cli.main.self_s": per(tracer.self_seconds("cli.main")),
        "trace.overhead_frac": statistics.median(traced.times)
        / statistics.median(untraced.times) - 1.0,
    }
    for h in (1024, 16384, 131072):
        values[f"fracops.tail_sum.ns_per_call.h{h}"] = tail_sum_ns(h)
    for mu in (0.8, 0.73):
        degree, ms = sector_test_ms(mu)
        values[f"stability.sector_test.ms.deg{degree}"] = ms
    return values


def print_layers(tracer, iterations: int) -> None:
    """Calls, total and self seconds per (layer, parent), per iteration."""
    print(f"# {'layer':<28} {'parent':<28} {'calls':>9} {'total_s':>9} "
          f"{'self_s':>9}")
    for (layer, parent), (calls, total, child) in sorted(
            tracer.stats.items(), key=lambda kv: kv[1][2] - kv[1][1]):
        print(f"# {layer:<28} {parent or '-':<28} {calls / iterations:>9.0f} "
              f"{total / iterations:>9.4f} {(total - child) / iterations:>9.4f}")


def spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, within the data's range."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _exact(value: float, unit: str):
    """Counts are whole per iteration; print them as integers."""
    if unit == "count" and float(value).is_integer():
        return int(value)
    return value


def run_workload(args) -> int:
    import_program()
    sys.path.insert(0, str(HERE))
    import hostspeed
    import tracing
    import workloads

    bench = spec()
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine {json.dumps(machine_record(), sort_keys=True)}")
    setup_wall, setup = ([], []) if args.trace else measure_setup(args)

    workdir = Path(WORK_ROOT) / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        ref = workloads.load_reference(workload)
        untraced = Totals()
        phase = args.seconds / 2 if args.trace else args.seconds
        # per-layer self times would take in the samples, so the traced
        # run samples no host speed
        sampler = hostspeed.Sampler() \
            if workload.host_sampled and not args.trace else None
        measure(workload, ref, phase, untraced, sampler=sampler)
        runs = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            traced = Totals()
            measure(workload, ref, phase, traced, tracer)
            runs.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            Path(WORK_ROOT).rmdir()
        except OSError:
            pass

    for note in untraced.notes:
        print(f"# outcome {note}")
    for label, totals in zip(("untraced", "traced"), runs):
        q1, med, q3 = quartiles(totals.times)
        print(f"# {label}: {len(totals.times)} iterations, median "
              f"{med:.4f} s (quartiles {q1:.4f} .. {q3:.4f})")
        if totals.normalized:
            q1, med, q3 = quartiles(totals.normalized)
            print(f"# {label} at reference host speed: median {med:.4f} s "
                  f"(quartiles {q1:.4f} .. {q3:.4f})")
    # each operation once, whichever phase or iteration attempted it
    ops = {}
    for totals in runs:
        merge_ops(ops, totals.ops)
    attempted = len(ops)
    failed = sum(ops.values())
    correct = all(t.check_failures == 0 for t in runs)

    if args.trace:
        print_layers(tracer, len(traced.times))
        spans = Path(WORK_ROOT) / f"spans-{args.workload}-seed{args.seed}.json"
        spans.parent.mkdir(exist_ok=True)
        with open(spans, "w") as fh:
            json.dump([{"name": n, "start": a, "end": b, "parent": p}
                       for n, a, b, p in tracer.spans], fh)
        print(f"# coarse spans written to {spans}")
        values = layer_metrics(tracer, traced, untraced)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        # times at reference host speed where the workload samples it (see
        # hostspeed.py), else as measured
        iteration_s = statistics.median(untraced.normalized
                                        or untraced.times)
        n = len(untraced.times)
        values = {
            "setup_s": statistics.median(setup),
            "sim_steps_per_s": untraced.steps / n / iteration_s,
            "configs_per_s": untraced.configs / n / iteration_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print(f"# setup probes (s): {', '.join(f'{s:.4f}' for s in setup_wall)}"
              f"; at reference host speed: "
              f"{', '.join(f'{s:.4f}' for s in setup)}")
    metrics = {name: {"value": _exact(values[name], unit), "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        tag = "  (headline)" if name == HEADLINE.get(args.workload) \
            and not args.trace else ""
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}{tag}")
    if args.workload == "reproduce-all" and not args.trace:
        print(f"{'reproduce_all_s':<40} {iteration_s:>16.6g} s  (headline)")
    print(f"{'ops_attempted':<40} {attempted:>16d} count")
    print(f"{'failed_ops_frac':<40} {failed / attempted:>16.6g} "
          f"frac  (failed {failed} of {attempted})")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so that peak RSS is per
    workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]) + "\n")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="wall time one run measures (default 25)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
