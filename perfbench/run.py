"""darkfilter benchmark: end-to-end and per-layer metrics of CLI runs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  Each run is one ``darkfilter``
subcommand in a fresh process (perfbench/child.py), one run at a time in
a closed loop, with OpenBLAS pinned to the workload's thread count.  Runs
repeat for about --seconds seconds, three at least; every run's artifacts
are checked against references (workloads.py), and a mismatch, an
exception or a non-zero exit status counts as a failed run.  A host-speed
probe (probe.py) runs before the first run and after every run.

--trace 0 reports the end-to-end metrics of untraced runs: wall_s (what
a CLI user waits for, process start to exit), setup_s (package import
plus engine set-up) and peak_rss_mb (ru_maxrss of the run process), each
the median over the runs.  wall_s and setup_s are scaled to the
reference host speed: each run's times are multiplied by the probe's
reference time (PROBE_REF_S) over the mean of the probes on either side
of the run.  --trace 1 alternates untraced and traced runs and reports
the per-layer metrics of layers.py, unscaled.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A detailed record (environment,
every run, failure reasons) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy
import scipy

import layers
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
MIN_CYCLES = {False: 3, True: 1}
LAST_START_S = 120.0   # no run starts after this, so a call ends in 180 s
RUN_TIMEOUT_S = 150.0
MB = 1e6
# the probes' times on the reference host, by probe kind (probe.py)
PROBE_REF_S = {"vector": 1.0, "blas": 0.75}
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def child_env(blas_threads=1):
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(blas_threads)
    env.pop("PYTHONPATH", None)
    return env


def run_once(workload, doc, expected, mode, run_dir, run_id):
    """One CLI run in a fresh process; returns its measurements and verdict."""
    os.makedirs(run_dir)
    config = os.path.join(run_dir, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out_dir = os.path.join(run_dir, "out")
    record_path = os.path.join(run_dir, "record.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), record_path, mode,
           run_id, workload.subcommand, "--config", config, "--out", out_dir]
    run = {"mode": mode, "run_id": run_id, "ok": False, "problems": []}
    with open(os.path.join(run_dir, "stdout"), "wb") as out, \
            open(os.path.join(run_dir, "stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT,
                                env=child_env(workload.blas_threads),
                                stdout=out, stderr=err)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        reaped = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            reaped = True
        finally:
            killer.cancel()
            if not reaped:
                proc.kill()
                proc.wait()
        run["wall_s"] = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    run["exit_status"] = proc.returncode
    run["cpu_s"] = usage.ru_utime + usage.ru_stime
    run["peak_rss_mb"] = usage.ru_maxrss * 1024 / MB
    if proc.returncode != 0:
        with open(os.path.join(run_dir, "stderr"), encoding="utf-8",
                  errors="replace") as fh:
            tail = fh.read()[-2000:]
        run["problems"].append(f"exit status {proc.returncode}: {tail}")
        return run
    try:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
        run["problems"] = workload.check(out_dir, expected)
    except Exception as exc:  # a broken artifact is a failed run, not a crash
        run["problems"].append(f"output check raised {exc!r}")
        return run
    run["ok"] = not run["problems"]
    run["setup_s"] = record["import_s"] + record["engine_setup_s"]
    run["engine_setup_calls"] = record["engine_setup_calls"]
    if record["spans"] is not None:
        run["layers"] = layers.layer_metrics(record["spans"])
        run["accounted_s"] = layers.accounted_s(run["layers"])
    return run


def warm_up():
    """Import the package once so later runs find its bytecode cached."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, sys.argv[1]); "
                    "import darkfilter.cli", os.path.join(ROOT, "src")],
                   cwd=ROOT, env=child_env(), check=True,
                   timeout=RUN_TIMEOUT_S)


def probe(workload):
    """Seconds the workload's host-speed probe takes, in a fresh process."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "probe.py"),
                          workload.probe], cwd=ROOT,
                         env=child_env(workload.blas_threads), check=True,
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    return float(out.stdout)


def measure(workload, seed, seconds, trace, work_dir):
    """Closed loop of runs for about `seconds`; returns (runs, inputs).

    The probe runs before the first run and after every run; a run's
    host scale is the probe's reference time over the mean of the probes
    around it.
    """
    doc, expected = workload.inputs(seed)
    modes = ("untraced", "traced") if trace else ("untraced",)
    runs, cycles = [], []
    start = time.perf_counter()
    probes = [probe(workload)]
    try:
        while True:
            cycle_start = time.perf_counter()
            for mode in modes:
                run_id = f"{len(runs):03d}-{mode}"
                run_dir = os.path.join(work_dir, run_id)
                run = run_once(workload, doc, expected, mode, run_dir, run_id)
                shutil.rmtree(run_dir, ignore_errors=True)
                probes.append(probe(workload))
                run["probes_s"] = probes[-2:]
                run["probe_s"] = (probes[-2] + probes[-1]) / 2
                run["host_scale"] = (PROBE_REF_S[workload.probe]
                                     / run["probe_s"])
                runs.append(run)
            cycles.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - start
            next_end = elapsed + statistics.median(cycles)
            if next_end > LAST_START_S or (len(cycles) >= MIN_CYCLES[trace]
                                           and next_end > seconds):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return runs, {"config": doc, "expected": expected}


def tail_percentile(values):
    """(percentile, value) of the highest percentile with >= 10 samples
    above it, or None when there are too few samples."""
    if len(values) < 11:
        return None
    ordered = sorted(values)
    k = len(ordered) - 10
    return 100.0 * k / len(ordered), ordered[k - 1]


def scaled(run, name):
    """A run's time scaled to the reference host speed."""
    return run[name] * run["host_scale"]


def end_to_end(runs):
    good = [r for r in runs if r["mode"] == "untraced" and r["ok"]]
    if not good:
        return {}
    values = {"wall_s": [scaled(r, "wall_s") for r in good],
              "setup_s": [scaled(r, "setup_s") for r in good],
              "peak_rss_mb": [r["peak_rss_mb"] for r in good]}
    return {name: {"value": statistics.median(values[name]), "unit": unit}
            for name, unit in END_TO_END}


def per_layer(runs):
    untraced = [r for r in runs if r["mode"] == "untraced" and r["ok"]]
    traced = [r for r in runs if r["mode"] == "traced" and r["ok"]]
    if not untraced or not traced:
        return {}
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    wall = statistics.median(r["wall_s"] for r in untraced)
    cpu = statistics.median(r["cpu_s"] for r in untraced)
    values["process.wall_s"] = wall
    values["process.cpu_s"] = cpu
    values["process.cpu_per_wall"] = cpu / wall
    values["host.probe_s"] = statistics.median(r["probe_s"] for r in runs)
    values["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - wall
    values["trace.unaccounted_s"] = statistics.median(
        r["wall_s"] - r["accounted_s"] for r in traced)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, kind in layers.PER_LAYER}


def git_sha():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over src/darkfilter/*.py, to tell commits apart without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "darkfilter")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment():
    def blas(config):
        dep = config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config),
        "probe_ref_s": PROBE_REF_S,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def summary(name, seed, runs, metrics, trace):
    attempted = len(runs)
    failed = sum(not r["ok"] for r in runs)
    untraced = sorted(scaled(r, "wall_s") for r in runs
                      if r["mode"] == "untraced" and r["ok"])
    lines = [f"{name} seed {seed}: {attempted} runs, {failed} failed, "
             f"error_rate {failed / attempted:g} (failed/attempted)"]
    if not trace and metrics:
        tail = tail_percentile(untraced)
        spread = ("no percentile has >= 10 samples above it" if tail is None
                  else f"p{tail[0]:.0f} {tail[1]:.4f} s")
        lines.append(f"  wall_s      {metrics['wall_s']['value']:.4f} s  "
                     f"(median of {len(untraced)}; {spread})")
        lines.append(f"  setup_s     {metrics['setup_s']['value']:.4f} s")
        lines.append(f"  peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    elif metrics:
        for metric, entry in metrics.items():
            lines.append(f"  {metric:38s} {entry['value']:.6g} "
                         f"{entry['unit']}")
        unaccounted = metrics["trace.unaccounted_s"]["value"]
        overhead = metrics["trace.overhead_s"]["value"]
        lines.append(f"  traced wall minus summed self times "
                     f"{unaccounted:.4f} s; tracing overhead {overhead:.4f} s")
    for run in runs:
        for problem in run["problems"]:
            lines.append(f"  FAILED {run['run_id']}: {problem}")
    return "\n".join(lines)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=23)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "darkfilter", "cli.py")):
        print(f"error: no darkfilter sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    env = environment()
    env["openblas_num_threads"] = workload.blas_threads
    env["probe"] = workload.probe
    env["load_average_start"] = os.getloadavg()
    os.makedirs(RESULTS, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%S")
    tag = f"{stamp}-{workload.name}-seed{args.seed}-trace{args.trace}"
    warm_up()
    runs, inputs = measure(workload, args.seed, args.seconds, trace,
                           os.path.join(RESULTS, f"work-{tag}-{os.getpid()}"))
    env["load_average_end"] = os.getloadavg()
    metrics = per_layer(runs) if trace else end_to_end(runs)
    failed = sum(not r["ok"] for r in runs)
    result = {"correct": failed == 0 and bool(metrics),
              "attempted": len(runs), "failed": failed, "metrics": metrics}
    kinds = {name: kind for name, unit, kind in layers.PER_LAYER}
    with open(os.path.join(RESULTS, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": workload.name, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "environment": env, "inputs": inputs,
                   "metric_kinds": kinds if trace else "measured",
                   "result": result, "runs": runs}, fh, indent=1,
                  default=str)
    print(summary(workload.name, args.seed, runs, metrics, trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
