"""Benchmark for homeactivity: three workloads run through the real CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --suite [--seconds S]

A run builds its workload's inputs from the seed (set-up), then repeats
a pair of measurements at least three times, and more while another pair
is expected to end within --seconds: a set-up probe, which times how long
a fresh interpreter takes to import `homeactivity.cli` and load what the
first command loads (`setup_s`), and the workload's unit of work. Each
unit spawns `python -m homeactivity.cli` children one at a time, with no
threads and one BLAS thread; wall time is spawn to exit and CPU time and
peak RSS come from `os.wait4`. Every unit is checked: exit codes, the sha256 of every output
against the run's first unit, and the acceptance gate's floors
(accuracy >= 0.90, duration error <= 0.05) where the workload has a
truth.

Times (wall_s, cpu_s, days_per_s, setup_s) are means over the run's
units and probes; peak RSS and output size are medians. On the 2-vCPU
host the benchmark was tuned on, the host's speed moved both ways by up
to 1.5x for seconds to minutes at a time (machine.ref_s 0.08-0.17 s), so
a single unit's time is not a measurement. Interleaving the probes with
the units spreads both over the whole run, and the mean weighs the fast
and slow spells a run met by their length, where the fastest unit or the
median unit jumps between them from run to run.

With --trace 1 the run then repeats the unit once more in this process
through `cli.main`, with wrappers installed on the program's modules
(tracing.py), and reports the per-layer metrics instead. Its outputs must
match the timed units' digests. Just before the traced unit, the same
unit runs once in this process without the tracer; `trace.overhead_s` is
the traced wall time minus that untraced in-process wall time, so
interpreter start cancels out.

The last line of standard output is the result as one JSON object;
the lines before it print every metric with its unit, the quality
figures, the output digests and the environment.

--suite runs every workload RUNS times in each of SETS sets with seeds
1..RUNS, interleaving the workloads so host drift spreads evenly, then one traced
run per workload, and writes the medians, spreads and digests to
bench/baseline.json. It exits 1 unless, for every end-to-end metric of
every workload, each set's spread (IQR over median) and the drift of the
second set's median from the first, either way, are within the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, here and in every child, set before NumPy is first
# imported: the load is one single-threaded process at a time, and an
# idle OpenBLAS worker otherwise spins on the other core (on a 2-vCPU
# host, context_week's cpu_s read about 10% above its wall_s).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BASELINE = Path(__file__).resolve().parent / "baseline.json"

WORKLOADS = ("week_pipeline", "bundle_classify", "context_week")
MIN_UNITS = 3  # and as many set-up probes
RUNS = 10  # per workload and set, in --suite
SETS = 2  # the suite's sets must agree with each other
ACCURACY_FLOOR = 0.90
DURATION_CEILING = 0.05

END_TO_END = {  # name -> unit; the JSON result carries these with --trace 0
    "wall_s": "s",
    "cpu_s": "s",
    "days_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "output_mb": "MB",
}
# Printed with the others but left out of the JSON result: accuracy and
# duration_err have no truth on bundle_classify, and failed_frac is 0 on
# a correct commit (the result's "failed" and "attempted" carry it).
QUALITY = {"accuracy": "share", "duration_err": "share", "failed_frac": "share"}

SETUP_SNIPPET = """
import json, sys, time
t0 = time.perf_counter()
import homeactivity.cli
t1 = time.perf_counter()
from homeactivity import fusion, labelling, neural
fusion.load_default_rules()
labelling.load_default_priorities()
if len(sys.argv) > 1:
    neural.load_bundle(sys.argv[1])
print(json.dumps({"import_s": t1 - t0, "load_s": time.perf_counter() - t1}))
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv, stdout, stderr):
    """Run one child to exit: (wall s, user+system s, peak RSS MB, exit code)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=child_env(), stdout=stdout, stderr=stderr)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


def machine_ref() -> float:
    """A fixed NumPy plus pure-Python loop, to record host speed drift."""
    import numpy as np

    a = np.random.default_rng(0).normal(size=(160, 160))
    start = time.perf_counter()
    for _ in range(60):
        a = np.tanh(a @ a.T / 160)
    total = 0
    for i in range(800_000):
        total += i * i % 7
    return time.perf_counter() - start


def environment() -> dict:
    import numpy
    import scipy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
    }


def setup_probe(prep, work: Path) -> dict:
    """One fresh interpreter importing the CLI and loading what its first
    command loads: its wall time, and the split the child reports."""
    argv = [sys.executable, "-c", SETUP_SNIPPET]
    if prep.bundle is not None:
        argv.append(str(prep.bundle))
    with open(work / "setup.json", "w+", encoding="utf-8") as out:
        wall, _cpu, _rss, code = spawn(argv, out, subprocess.DEVNULL)
        out.seek(0)
        text = out.read()
    if code != 0:
        raise RuntimeError("the set-up probe could not import homeactivity.cli")
    return {"setup_s": wall, **json.loads(text)}


def digests(out_dir: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir()) if p.is_file()
    }


def run_unit(prep, log: Path) -> dict:
    prep.reset_out()
    unit = {"wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0, "codes": []}
    start = time.perf_counter()
    with open(log, "w", encoding="utf-8") as err:
        for argv in prep.commands:
            _wall, cpu, rss, code = spawn(
                [sys.executable, "-m", "homeactivity.cli", *argv], subprocess.DEVNULL, err
            )
            unit["cpu_s"] += cpu
            unit["peak_rss_mb"] = max(unit["peak_rss_mb"], rss)
            unit["codes"].append(code)
            if code != 0:
                break
    unit["wall_s"] = time.perf_counter() - start
    return unit


def judge(prep, unit: dict, reference: dict | None, log: Path | None) -> dict:
    """Check one unit's outputs; returns its digests, quality and failure."""
    reasons = []
    if any(code != 0 for code in unit["codes"]):
        tail = log.read_text(encoding="utf-8").strip().splitlines()[-3:] if log else []
        reasons.append(f"exit codes {unit['codes']}: {' | '.join(tail)}")
        return {"digests": {}, "quality": {}, "failed": reasons, "output_mb": 0.0}
    sums = digests(prep.out)
    size = sum(p.stat().st_size for p in prep.out.iterdir() if p.is_file())
    if reference is not None and sums != reference:
        changed = sorted(k for k in set(sums) | set(reference) if sums.get(k) != reference.get(k))
        reasons.append(f"outputs differ from the run's first unit: {changed}")
    quality = {}
    try:
        quality = prep.check(prep.out)
    except Exception as exc:  # a malformed output is a failed unit, not a crash
        reasons.append(f"check: {type(exc).__name__}: {exc}")
    if quality.get("accuracy", 1.0) < ACCURACY_FLOOR:
        reasons.append(f"accuracy {quality['accuracy']:.4f} < {ACCURACY_FLOOR}")
    if quality.get("duration_err", 0.0) > DURATION_CEILING:
        reasons.append(f"duration_err {quality['duration_err']:.4f} > {DURATION_CEILING}")
    return {"digests": sums, "quality": quality, "failed": reasons, "output_mb": size / 1e6}


def in_process_unit(prep, tracer=None):
    """Run the unit in this process through cli.main, under the tracer if
    one is given: (wall s, exit codes)."""
    from homeactivity import cli

    prep.reset_out()
    main = cli.main if tracer is None else functools.partial(tracer.call, "cli.main", cli.main)
    codes = []
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        for argv in prep.commands:
            with contextlib.redirect_stderr(io.StringIO()):
                codes.append(main(argv))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, codes


def in_memory_ms_per_window(prep) -> float:
    """forward_bundle on the bundle as built in memory (arrays, not lists)."""
    from homeactivity import neural

    windows = prep.extra["windows"][:40]
    start = time.perf_counter()
    for w in windows:
        neural.forward_bundle(prep.extra["bundle"], w)
    return (time.perf_counter() - start) / len(windows) * 1e3


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    import tracing
    import workloads

    ref_s = machine_ref()
    env = environment()
    work = WORK / name
    prep = workloads.prepare(name, work / "data", seed, size)
    log = work / "stderr.log"

    probes, units, judged = [], [], []
    start = time.perf_counter()
    while len(units) < MIN_UNITS or (
        (time.perf_counter() - start) * (len(units) + 1) / len(units) <= seconds
    ):
        probes.append(setup_probe(prep, work))
        unit = run_unit(prep, log)
        verdict = judge(prep, unit, judged[0]["digests"] if judged else None, log)
        units.append(unit)
        judged.append(verdict)

    setup = {key: statistics.fmean(p[key] for p in probes)
             for key in ("setup_s", "import_s", "load_s")}
    e2e = {key: statistics.fmean(u[key] for u in units) for key in ("wall_s", "cpu_s")}
    e2e["days_per_s"] = prep.days / e2e["wall_s"]
    e2e["peak_rss_mb"] = statistics.median(u["peak_rss_mb"] for u in units)
    e2e["setup_s"] = setup["setup_s"]
    e2e["output_mb"] = statistics.median(v["output_mb"] for v in judged)
    failures = [v["failed"] for v in judged if v["failed"]]
    quality = judged[0]["quality"]
    e2e.update({k: quality[k] for k in ("accuracy", "duration_err") if k in quality})
    e2e["failed_frac"] = len(failures) / len(units)

    attempted = len(units)
    layers = None
    if trace:
        untraced_wall, _codes = in_process_unit(prep)
        tracer = tracing.Tracer()
        traced_wall, codes = in_process_unit(prep, tracer)
        verdict = judge(prep, {"codes": codes}, judged[0]["digests"], None)
        attempted += 1
        if verdict["failed"]:
            failures.append(["traced run: " + r for r in verdict["failed"]])
        layers = tracer.layer_metrics()
        layers["cli.import_s"] = setup["import_s"]
        layers["cli.invocations"] = len(prep.commands)
        layers["machine.ref_s"] = ref_s
        layers["trace.overhead_s"] = traced_wall - untraced_wall
        layers["neural.ms_per_window_in_memory"] = (
            in_memory_ms_per_window(prep) if prep.bundle is not None else 0.0
        )
        layers["trace.wall_s"] = traced_wall

    return {
        "workload": name,
        "seed": seed,
        "size": size,
        "env": env,
        "machine.ref_s": ref_s,
        "setup": setup,
        "units": len(units),
        "per_unit": {
            **{k: [u[k] for u in units] for k in ("wall_s", "cpu_s", "peak_rss_mb")},
            "setup_s": [p["setup_s"] for p in probes],
        },
        "end_to_end": e2e,
        "per_layer": layers,
        "digests": judged[0]["digests"],
        "failures": failures,
        "attempted": attempted,
    }


def result_line(res: dict, tracing) -> dict:
    if res["per_layer"] is None:
        metrics = {k: {"value": res["end_to_end"][k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    else:
        metrics = {k: {"value": res["per_layer"][k], "unit": tracing.metric_unit(k)}
                   for k in tracing.per_layer_names()}
    return {
        "correct": not res["failures"],
        "attempted": res["attempted"],
        "failed": len(res["failures"]),
        "metrics": metrics,
    }


def print_report(res: dict, tracing) -> None:
    name = res["workload"]
    print(f"# {name} seed={res['seed']} size={res['size']} units={res['units']} "
          f"env={json.dumps(res['env'], sort_keys=True)}")
    for key, value in res["end_to_end"].items():
        unit = END_TO_END.get(key) or QUALITY[key]
        print(f"{name} {key} {value:.6g} {unit}")
    if res["per_layer"] is not None:
        for key in tracing.per_layer_names() + ["trace.wall_s"]:
            print(f"{name} {key} {res['per_layer'][key]:.6g} {tracing.metric_unit(key)}")
        print("# calibration's inner filter/segment/feature calls count under "
              "simulate.calibrate_centroids_s: simulate binds them by name at import")
    for fname, digest in res["digests"].items():
        print(f"{name} sha256 {fname} {digest}")
    for reasons in res["failures"]:
        print(f"{name} FAILED {'; '.join(reasons)}")
    print("detail " + json.dumps(res, sort_keys=True))


def quartile_spread(values) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def suite(seconds: float, size: str) -> int:
    """Interleaved runs of every workload, traced runs, and the baseline."""
    import tracing

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [[] for _ in range(SETS)] for w in WORKLOADS}
    me = str(Path(__file__).resolve())

    def child(workload, seed, trace):
        out = subprocess.run(
            [sys.executable, me, "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--size", size],
            capture_output=True, text=True, check=False,
        )
        lines = out.stdout.strip().splitlines()
        detail = next((json.loads(ln[7:]) for ln in lines if ln.startswith("detail ")), None)
        if out.returncode != 0 or detail is None:
            raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-2000:]}")
        return detail

    for s in range(SETS):
        for i in range(RUNS):
            order = WORKLOADS[i % 3:] + WORKLOADS[:i % 3]
            for workload in order:
                res = child(workload, i + 1, 0)
                results[workload][s].append(res)
                e = res["end_to_end"]
                print(f"set {s + 1} run {i + 1} {workload}: wall_s {e['wall_s']:.3f} "
                      f"setup_s {e['setup_s']:.3f} ref_s {res['machine.ref_s']:.3f} "
                      f"failed {len(res['failures'])}", flush=True)
    traced = {w: child(w, 1, 1) for w in WORKLOADS}

    doc = {"env": environment(), "runs_per_set": RUNS, "sets": SETS,
           "seconds": seconds, "size": size, "bounds": bounds, "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        sets_res = results[workload]
        entry = {"metrics": {}, "runs": []}
        for key in [*END_TO_END, *QUALITY]:
            per_set = [[r["end_to_end"][key] for r in rs if key in r["end_to_end"]]
                       for rs in sets_res]
            if not per_set[0]:
                continue
            stats = {"unit": END_TO_END.get(key) or QUALITY[key],
                     "medians": [statistics.median(v) for v in per_set],
                     "spreads": [quartile_spread(v) if len(v) > 1 else None
                                 for v in per_set]}
            if key in bounds:
                stats["bound"] = bounds[key]
                within = all(sp is not None and sp <= bounds[key] for sp in stats["spreads"])
                better = next(m["better"] for m in bench["end_to_end"] if m["name"] == key)
                first, last = stats["medians"][0], stats["medians"][-1]
                drift = (last - first) / first if better == "lower" else (first - last) / first
                stats["drift"] = drift
                stats["ok"] = within and abs(drift) <= bounds[key]
                ok &= stats["ok"]
            entry["metrics"][key] = stats
        for rs in sets_res:
            for r in rs:
                entry["runs"].append({
                    "seed": r["seed"], "machine.ref_s": r["machine.ref_s"],
                    "loadavg": r["env"]["loadavg"], "units": r["units"],
                    "per_unit": r["per_unit"], "setup": r["setup"],
                    "end_to_end": r["end_to_end"], "digests": r["digests"],
                    "failures": r["failures"],
                })
        entry["failed_runs"] = sum(bool(r["failures"]) for rs in sets_res for r in rs)
        t = traced[workload]
        entry["per_layer_seed1"] = {
            k: [t["per_layer"][k], tracing.metric_unit(k)]
            for k in tracing.per_layer_names() + ["trace.wall_s"]
        }
        doc["workloads"][workload] = entry
    doc["layers"] = {
        layer: {"metrics": m, "moves": moves, "on": on}
        for layer, (m, moves, on) in tracing.LAYERS.items()
    }
    bundle = doc["workloads"]["bundle_classify"]["per_layer_seed1"]
    doc["neural_ms_per_window"] = {
        "file_loaded_cli_path": bundle["neural.ms_per_window"][0],
        "in_memory": bundle["neural.ms_per_window_in_memory"][0],
        "cause": "load_bundle keeps the weights as nested JSON lists and "
                 "forward_bundle converts them with np.asarray on every window",
    }
    BASELINE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for workload, entry in doc["workloads"].items():
        for key, stats in entry["metrics"].items():
            spreads = " ".join("-" if s is None else f"{s:.3f}" for s in stats["spreads"])
            medians = " ".join(f"{m:.4g}" for m in stats["medians"])
            verdict = "" if "ok" not in stats else (" ok" if stats["ok"] else " OUT OF BOUND")
            print(f"{workload} {key}: median {medians} {stats['unit']} spread {spreads}{verdict}")
    print(f"wrote {BASELINE}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: a few blocks of one day, for the benchmark's own test")
    parser.add_argument("--suite", action="store_true")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "homeactivity" / "cli.py").is_file():
        print(f"error: {SRC / 'homeactivity'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.suite:
        return suite(args.seconds, args.size)
    if args.workload is None:
        parser.error("--workload is required without --suite")
    import tracing

    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print_report(res, tracing)
    print(json.dumps(result_line(res, tracing)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
