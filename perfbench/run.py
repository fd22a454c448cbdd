"""Benchmark of the multistep package: one workload per run.

    python3 perfbench/run.py --workload recursive-family --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout. The load is a closed loop with one
caller: each iteration starts when the previous one ends. With
`--trace 0` the last line of standard output is a JSON object holding
the end-to-end metrics of `BENCHMARK.json`; with `--trace 1` it holds
the per-layer metrics of one traced iteration. `--workload all` runs
every workload in a fresh interpreter, one after another, and prints a
table. See perfbench/README.md.
"""

import os

# The BLAS thread count changes both the speed and the low bits of the
# results, so it is pinned before NumPy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5  # set-ups per run; setup_s is their median
MIN_ITERATIONS = 2  # so every run compares outputs across iterations
PHASES = ("wall_s", "ingest_s", "train_s", "evaluate_s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in a fresh interpreter, then exit
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
    }


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter to its inputs being ready."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe", str(workdir)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {code}")
    return ready - start


def iterate(wl):
    """One closed-loop iteration: phase times and the checked outputs."""
    t0 = time.perf_counter()
    wl.ingest()
    t1 = time.perf_counter()
    wl.train()
    t2 = time.perf_counter()
    out = wl.evaluate()
    t3 = time.perf_counter()
    return {"ingest_s": t1 - t0, "train_s": t2 - t1, "evaluate_s": t3 - t2,
            "wall_s": t3 - t0}, out


class Loop:
    """Iterations of one workload, with the cross-iteration output checks."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[dict[str, float]] = []  # phase times of each good iteration
        self.reference = None  # outputs of the first good iteration
        self.attempted = 0
        self.failed = 0
        self.ref_s = None  # the last reference pass, when nothing ran since

    def once(self):
        """One iteration between two reference passes; its phase times in
        seconds and in `ref`, the mean of the two passes."""
        from workloads import CheckFailed

        self.attempted += 1
        before = self.ref_s if self.ref_s is not None else self.wl.reference_s()
        self.ref_s = None
        try:
            times, out = iterate(self.wl)
            self.ref_s = self.wl.reference_s()
            if self.reference is None:
                self.reference = out
            elif out != self.reference:
                raise CheckFailed(f"outputs differ from the first iteration: {out} != "
                                  f"{self.reference}")
        except Exception:  # any failure of the program counts, and the loop goes on
            self.failed += 1
            traceback.print_exc()
            return None
        times["ref_s"] = (before + self.ref_s) / 2
        times.update({f"{k.removesuffix('_s')}_ref": times[k] / times["ref_s"]
                      for k in PHASES})
        self.times.append(times)
        return times

    def run(self, seconds: float):
        """Iterate for `seconds`: start an iteration only if it should end in time."""
        start = time.perf_counter()
        while self.attempted < MIN_ITERATIONS or (
            self.times and time.perf_counter() - start + self.median("wall_s") <= seconds
        ):
            self.once()

    def median(self, key: str) -> float:
        return statistics.median(t[key] for t in self.times)


def timed_run(wl_class, args, workdir: Path):
    """End-to-end metrics: timed set-ups in child interpreters, then the loop."""
    setup_s = statistics.median(
        probe_setup(wl_class.name, args.seed, workdir / f"probe{i}") for i in range(SETUP_PROBES)
    )
    wl = wl_class(args.seed, workdir / "run")
    wl.setup()
    loop = Loop(wl)
    loop.run(args.seconds)
    if not loop.times:
        return loop, {}
    rows = sum(f.epochs * f.rows for f in wl.fits())
    metrics = {k: loop.median(k) for k in loop.times[0]}
    metrics.update(
        setup_s=setup_s,
        train_rows_per_ref=rows / metrics["wall_ref"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    return loop, metrics


def traced_run(wl_class, args, workdir: Path):
    """Per-layer metrics: a traced set-up, the untraced loop, then one traced
    iteration."""
    from tracing import Tracer

    tracer = Tracer()
    wl = wl_class(args.seed, workdir / "run")
    with tracer.installed():
        wl.setup()
    loop = Loop(wl)
    loop.run(args.seconds)
    if not loop.times:
        return loop, {}
    untraced_wall_ref = loop.median("wall_ref")
    tracer.root_s = 0.0
    with tracer.installed():
        traced = loop.once()
    if traced is None:
        return loop, {}
    expected = sum(f.steps for f in wl.fits())
    if tracer.counts["nn.train_steps"] != expected:
        loop.failed += 1
        print(f"nn.train_steps {tracer.counts['nn.train_steps']} != {expected} expected from "
              "the workload's fits: a call escaped the tracer", file=sys.stderr)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{wl_class.name}-s{args.seed}.npz")
    traced_wall_s = traced["wall_s"]
    # the untraced median, in seconds at the host's speed around the traced iteration
    untraced_wall_s = untraced_wall_ref * traced["ref_s"]
    metrics = tracer.metrics(traced_wall_s, untraced_wall_s, tracer.root_s)
    print(f"traced wall {traced_wall_s:.3f} s, untraced median {untraced_wall_s:.3f} s, "
          f"unattributed {100 * metrics['trace.unattributed_s'] / traced_wall_s:.2f}%")
    return loop, metrics


def reference_match(workload: str, seed: int, out) -> str:
    """Compare the outputs with those recorded in digests.json for this seed."""
    with open(BENCH / "digests.json") as f:
        recorded = json.load(f)["outputs"].get(workload, {}).get(str(seed))
    if recorded is None or out is None:
        return "none recorded"
    same = recorded == {"test_mse": out.test_mse, "digest": out.digest}
    return "identical" if same else "differs"


def run_workload(args, spec) -> int:
    from workloads import WORKLOADS

    wl_class = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            wl_class(args.seed, Path(args.setup_probe)).setup()
            print("ready", flush=True)
            return 0
        run = traced_run if args.trace else timed_run
        loop, computed = run(wl_class, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # absent, or in use by another run
            pass

    listed = spec["per_layer" if args.trace else "end_to_end"]
    correct = loop.failed == 0 and bool(computed)
    metrics = ({m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in listed}
               if computed else {})
    out = loop.reference
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "error_rate": loop.failed / loop.attempted,
                      "test_mse": out and out.test_mse, "digest": out and out.digest,
                      "reference": reference_match(args.workload, args.seed, out)}))
    rows = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    rows.append(("error_rate", loop.failed / loop.attempted, "failed/attempted"))
    if not args.trace and computed:
        rows += [(f"{k} (not bounded)", v, "ref" if k.endswith("_ref") else "s")
                 for k, v in computed.items() if k not in metrics]
    if out is not None:
        rows.append(("test_mse (checked, not bounded)", out.test_mse, "norm_units2"))
    for name, value, unit in rows:
        print(f"{args.workload:>16}  {name:<38} {value:>14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec) -> int:
    """Every workload in its own fresh interpreter, one after another."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w["name"], "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1]) if lines else {"correct": False, "attempted": 0,
                                                      "failed": 0, "metrics": {}}
        correct = correct and result["correct"] and proc.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{w['name']}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "multistep" / "__init__.py").is_file():
        print(f"error: no multistep package under {ROOT / 'src'}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
