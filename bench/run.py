#!/usr/bin/env python3
"""touropt benchmark: one closed-loop client driving ``touropt.cli.main``.

Usage (from the repository root)::

    python3 bench/run.py --workload {search,screen,desk} --seed N \
        --seconds S --trace {0,1}

Operations run in-process through ``touropt.cli.main(argv)``, the path a
user's command takes, and write the real artifacts under ``.bench_run/``.
One client sends them in a closed loop: each starts when the previous
one has finished, and rounds (see ``workloads.py``) are started while the
last round's time still fits in ``--seconds``.  Every operation's
artifacts are checked by ``oracles.py``; an operation fails if it exits
non-zero or a check fails, and the run goes on.  BLAS/OpenMP threads are
pinned to 1.

``--trace 0`` reports the end-to-end metrics, their timings scaled to the
quiet host by a reference loop timed between operations (see
``REFERENCE_EXPONENT``; the raw figures are among the details):

- ``setup_s``: median of five fresh interpreters' time from start until
  the program is imported and the workload's inputs are written;
- ``op_p50_s``: median wall time of one operation, each operation taken
  at its command's median (a round's two presets make the operation times
  of ``search`` bimodal, and a plain median would fall in the gap between
  the slowest cheap and the fastest dear operation);
- ``evals_per_s``: model evaluations, counted from the configs and the
  artifacts, per second of operation time, again with each operation at
  its command's median;
- ``peak_rss_mb``: peak resident memory of the run's process.

``--trace 1`` runs each operation twice, untraced and traced by
``tracing.py`` (in alternating order), requires byte-identical artifacts
from both, and reports the per-layer metrics: unscaled means per traced
operation.  ``trace.overhead_frac`` is the traced wall time over the
untraced one, minus 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it list every
metric with its unit, the run environment and per-command details; the
same, with every operation's record, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
OUT_DIR = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5

# Other tenants of a shared host slow identical operations by up to 2x for
# minutes at a time; CPU time tracks wall time and steal time stays near
# zero, so the slowdown happens inside the core.  A fixed reference loop,
# timed between operations, measures it.  The workloads' operations slow by
# about the square root of the loop's slowdown (REFERENCE_EXPONENT, the best
# fit over sixty 40-second runs, loop slowdowns 1.0 to 1.9),
# so the end-to-end timings are divided by (median loop time over
# REFERENCE_NOMINAL_S) ** REFERENCE_EXPONENT.  The raw figures are printed
# among the details.
REFERENCE_NOMINAL_S = 0.0066  # fastest of 800 loops, 2-vCPU Xeon, Python 3.11.7
REFERENCE_EXPONENT = 0.5
REFERENCE_EVERY_S = 0.5

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "evals_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "sd_core.sims": "count/op",
    "sd_core.busy_s": "s/op",
    "sd_core.us_per_sim": "us/sim",
    "moea.sort_s": "s/op",
    "moea.sort_calls": "count/op",
    "moea.sort_pool_mean": "count/call",
    "moea.crowding_s": "s/op",
    "moea.variation_s": "s/op",
    "moea.hv_s": "s/op",
    "moea.verify_s": "s/op",
    "moea.archive_s": "s/op",
    "moea.evolve_self_s": "s/op",
    "moea.generations": "count/op",
    "moea.front_n": "count/op",
    "moea.front_yield": "frac",
    "moea.front_hv": "hv",
    "gsa.points": "count/op",
    "gsa.sample_s": "s/op",
    "gsa.estimate_s": "s/op",
    "gsa.analyze_self_s": "s/op",
    "scenario.runs": "count/op",
    "scenario.busy_s": "s/op",
    "flow.site_years": "count/op",
    "flow.busy_s": "s/op",
    "dataio.busy_s": "s/op",
    "cli.files": "count/op",
    "cli.bytes": "bytes/op",
    "sd_core.self_s": "s/op",
    "moea.self_s": "s/op",
    "gsa.self_s": "s/op",
    "scenario.self_s": "s/op",
    "flow.self_s": "s/op",
    "dataio.self_s": "s/op",
    "cli.self_s": "s/op",
    "trace.wall_s": "s/op",
    "trace.self_cover_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.spans": "count/op",
}


def load_program():
    """Import touropt from this checkout's ``src``, with threads pinned to 1.

    Exits with status 2 when the checkout holds no source tree, so the
    benchmark never measures an installed copy by mistake.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "touropt" / "__init__.py").is_file():
        print(f"bench: no touropt source tree at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import touropt.cli
    if Path(touropt.__file__).resolve().parent != SRC / "touropt":
        print(f"bench: imported touropt from {touropt.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return touropt.cli


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(seed: int) -> dict:
    import numpy
    import touropt
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu or platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "touropt": touropt.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "workload_seed": seed,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def reference_loop() -> float:
    """Seconds one fixed mix of interpreter and small-array work takes now."""
    import numpy
    start = perf_counter()
    acc, table = 0.0, {}
    for i in range(40000):
        x = (i % 97) * 0.5
        acc += math.sqrt(x + 1.0) * 0.25 if x > 3.0 else -x
        table[i & 255] = acc
    a = numpy.arange(256.0)
    for _ in range(200):
        a = numpy.minimum(a * 1.0001, 1e9)
    return perf_counter() - start


class HostSpeed:
    """Reference-loop times taken during a run, at most one per half second."""

    def __init__(self):
        self.samples = []
        self._last = float("-inf")

    def sample(self) -> None:
        if perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.samples.append(reference_loop())
            self._last = perf_counter()

    def slowdown(self) -> float:
        """How much slower than on the quiet host the run's operations ran."""
        return (statistics.median(self.samples) / REFERENCE_NOMINAL_S) ** REFERENCE_EXPONENT


def measure_setup(workload: str, seed: int, workdir: Path, host: HostSpeed) -> list:
    """Seconds from starting a fresh interpreter until its inputs are ready.

    Each probe is this script with ``--setup-probe``: it imports the
    program and writes the workload's inputs, then prints ``ready``.
    """
    times = []
    for i in range(SETUP_PROBES):
        host.sample()
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(seed), "--setup-probe", str(workdir / f"probe{i}")]
        start = perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            _, err = proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()}")
        times.append(elapsed)
    return times


def _artifact_sizes(out: Path) -> tuple:
    files = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
    return len(files), sum(p.stat().st_size for p in files)


def run_op(cli, op, inputs: Path, out: Path, config: dict, tracer=None,
           op_id=None, want_digests=False) -> dict:
    """Run one operation, time it, and check what it wrote."""
    import oracles
    if out.exists():
        shutil.rmtree(out)
    argv = op.argv(inputs, out)
    sink = io.StringIO()
    error = None
    rc = None
    ctx = tracer(op_id) if tracer is not None else contextlib.nullcontext()
    with ctx, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start, cpu_start = perf_counter(), process_time()
        try:
            rc = cli.main(argv)
        except (Exception, SystemExit):
            error = traceback.format_exc(limit=3)
        wall, cpu = perf_counter() - start, process_time() - cpu_start
    rec = {"op": op.label, "seed": op.seed, "wall_s": wall, "cpu_s": cpu, "rc": rc,
           "traced": tracer is not None, "evals": 0}
    if error is None and rc != 0:
        error = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
    if error is None:
        try:
            rec.update(oracles.check(op, out, config))
        except oracles.CheckFailed as e:
            error = f"check failed: {e}"
    rec["files"], rec["bytes"] = _artifact_sizes(out)
    if want_digests and out.is_dir():
        rec["digests"] = oracles.digests(out)
    rec["error"] = error
    return rec


def run_twins(cli, op, inputs: Path, workdir: Path, config: dict, tracer, op_id,
              traced_first: bool) -> tuple:
    """Run ``op`` untraced and traced, in the given order; returns both records."""
    def plain():
        return run_op(cli, op, inputs, workdir / "plain", config, want_digests=True)

    def traced():
        return run_op(cli, op, inputs, workdir / "traced", config, tracer, op_id,
                      want_digests=True)

    if traced_first:
        t = traced()
        return plain(), t
    p = plain()
    return p, traced()


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool,
                 workdir: Path, host: HostSpeed | None = None,
                 write_golden: bool = False) -> tuple:
    """Closed-loop run; returns (operation records, tracer or None, rounds).

    ``host``, if given, samples the reference loop between operations.
    """
    import oracles
    import tracing
    import workloads
    inputs = workdir / "inputs"
    workloads.write_inputs(workload, inputs)
    configs = workloads.configs(workload)
    check_golden = seed == workloads.DEFAULT_SEED and not write_golden
    golden = oracles.load_golden() if check_golden else {}
    tracer = tracing.Tracer() if trace else None
    records, round_times = [], []
    pairs = 0
    deadline = perf_counter() + seconds
    for r, ops in enumerate(workloads.rounds(workload, seed)):
        if r and (write_golden or perf_counter() + statistics.median(round_times) > deadline):
            break
        started = perf_counter()
        for i, op in enumerate(ops):
            expect = golden.get(oracles.golden_key(workload, i)) if r == 0 else None
            want = expect is not None or write_golden
            config = configs[op.config]
            if not trace:
                rec = run_op(cli, op, inputs, workdir / "out", config, want_digests=want)
                _compare_golden(rec, expect)
                records.append(rec)
                if host is not None:
                    host.sample()
                continue
            # the traced twin is recorded second, at index len(records) + 1
            plain, traced = run_twins(cli, op, inputs, workdir, config, tracer,
                                      op_id=len(records) + 1, traced_first=pairs % 2 == 1)
            pairs += 1
            _compare_golden(plain, expect)
            if traced["error"] is None and traced["digests"] != plain.get("digests"):
                traced["error"] = "traced artifacts differ from untraced ones"
            plain["pair"] = traced["pair"] = pairs
            records.extend([plain, traced])
        round_times.append(perf_counter() - started)
    return records, tracer, len(round_times)


def _compare_golden(rec: dict, expect) -> None:
    if expect is not None and rec["error"] is None and rec.get("digests") != expect:
        rec["error"] = "artifact digests differ from golden.json"


def _at_command_medians(records: list) -> list:
    """Each operation's wall time replaced by its command's median.

    A command is a command on one preset.  A burst of load from outside
    the benchmark slows a stretch of operations, and inputs drawn from
    different seeds cost different amounts; per-command medians keep
    either from setting the run's figures unless it covers half of a
    command's operations.
    """
    walls = {}
    for r in records:
        walls.setdefault(r["op"], []).append(r["wall_s"])
    return [statistics.median(w) for w in walls.values() for _ in w]


def end_to_end(records: list, setup_times: list, slowdown: float = 1.0) -> dict:
    """The end-to-end metrics, with timings divided by the host ``slowdown``."""
    ok = [r for r in records if r["error"] is None]
    busy = sum(_at_command_medians(ok))
    return {
        "setup_s": statistics.median(setup_times) / slowdown,
        "op_p50_s": statistics.median(_at_command_medians(records)) / slowdown,
        "evals_per_s": sum(r["evals"] for r in ok) * slowdown / busy if busy else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(records: list, tracer) -> dict:
    import tracing
    summary = tracing.summarize(tracer.spans)
    by_name = summary["by_name"]
    traced = [r for r in records if r["traced"]]
    plain_wall = sum(r["wall_s"] for r in records if not r["traced"])
    traced_wall = sum(r["wall_s"] for r in traced)
    n = len(traced)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def incl(name):
        return by_name.get(name, {}).get("incl_s", 0.0)

    def count(name, key):
        return by_name.get(name, {}).get("counts", {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    busy, own = summary["layer_busy_s"], summary["layer_self_s"]
    metrics = {
        "sd_core.sims": calls("sd_core.simulate") / n,
        "sd_core.busy_s": busy["sd_core"] / n,
        "sd_core.us_per_sim": 1e6 * ratio(incl("sd_core.simulate"), calls("sd_core.simulate")),
        "moea.sort_s": incl("moea.sort") / n,
        "moea.sort_calls": calls("moea.sort") / n,
        "moea.sort_pool_mean": ratio(count("moea.sort", "pool"), calls("moea.sort")),
        "moea.crowding_s": incl("moea.crowding") / n,
        "moea.variation_s": incl("moea.variation") / n,
        "moea.hv_s": incl("moea.hv") / n,
        "moea.verify_s": incl("moea.verify") / n,
        "moea.archive_s": incl("moea.archive") / n,
        "moea.evolve_self_s": by_name.get("moea.evolve", {}).get("self_s", 0.0) / n,
        "moea.generations": count("moea.evolve", "generations") / n,
        "moea.front_n": count("moea.evolve", "front_n") / n,
        "moea.front_yield": ratio(count("moea.evolve", "front_n"),
                                  count("moea.evolve", "evals")),
        "moea.front_hv": ratio(count("moea.evolve", "front_hv"), calls("moea.evolve")),
        "gsa.points": count("gsa.sample", "points") / n,
        "gsa.sample_s": incl("gsa.sample") / n,
        "gsa.estimate_s": incl("gsa.estimate") / n,
        "gsa.analyze_self_s": by_name.get("gsa.analyze", {}).get("self_s", 0.0) / n,
        "scenario.runs": calls("scenario.run") / n,
        "scenario.busy_s": busy["scenario"] / n,
        "flow.site_years": count("flow.redistribute", "site_years") / n,
        "flow.busy_s": busy["flow"] / n,
        "dataio.busy_s": busy["dataio"] / n,
        "cli.files": sum(r["files"] for r in traced) / n,
        "cli.bytes": sum(r["bytes"] for r in traced) / n,
    }
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = own[layer] / n
    metrics.update({
        "trace.wall_s": traced_wall / n,
        "trace.self_cover_frac": ratio(sum(own.values()), traced_wall),
        "trace.overhead_frac": ratio(traced_wall, plain_wall) - 1.0,
        "trace.spans": len(tracer.spans) / n,
    })
    return metrics


def details(records: list, rounds: int, setup_times: list) -> dict:
    by_op = {}
    for r in records:
        d = by_op.setdefault(f"{r['op']}{' traced' if r['traced'] else ''}",
                             {"n": 0, "failed": 0, "walls": []})
        d["n"] += 1
        d["failed"] += r["error"] is not None
        d["walls"].append(r["wall_s"])
    for d in by_op.values():
        d["wall_p50_s"] = statistics.median(d.pop("walls"))
    hvs = [r["front_hv"] for r in records if "front_hv" in r and not r["traced"]]
    walls = [r["wall_s"] for r in records]
    p90 = statistics.quantiles(walls, n=10, method="inclusive")[-1] if len(walls) > 1 else walls[0]
    return {
        "rounds": rounds,
        "ops": len(records),
        # reported here, not as a metric: only desk has ten samples beyond it
        "op_p90_s": p90,
        "op_p90_samples_beyond": sum(w > p90 for w in walls),
        "setup_probes_s": setup_times,
        "front_hv_mean": statistics.fmean(hvs) if hvs else None,
        "by_op": by_op,
        "failures": [f"{r['op']} seed {r['seed']}: {r['error']}"
                     for r in records if r["error"] is not None][:10],
    }


def parse_args(argv=None):
    import workloads
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--write-golden", action="store_true",
                   help="run one round at the default seed and pin its "
                        "artifact digests in golden.json")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = load_program()
    import oracles
    import tracing  # noqa: F401  (part of the set-up the probes time)
    import workloads
    if args.setup_probe:
        workloads.write_inputs(args.workload, Path(args.setup_probe))
        print("ready", flush=True)
        return 0
    if args.write_golden and args.seed != workloads.DEFAULT_SEED:
        sys.exit("bench: --write-golden pins the default seed only")
    workdir = RUN_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    host = HostSpeed()
    try:
        setup_times = measure_setup(args.workload, args.seed, workdir, host)
        warm_inputs = workdir / "warm"
        workloads.write_inputs("desk", warm_inputs)
        for op in next(workloads.rounds("desk", args.seed)):
            run_op(cli, op, warm_inputs, workdir / "warm_out",
                   workloads.configs("desk")[op.config])
        records, tracer, rounds = run_workload(
            cli, args.workload, args.seed, args.seconds, bool(args.trace), workdir,
            host, write_golden=args.write_golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.write_golden:
        golden = oracles.load_golden()
        for i, rec in enumerate(records):
            golden[oracles.golden_key(args.workload, i)] = rec["digests"]
        oracles.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(records)} operations of {args.workload} in {oracles.GOLDEN_PATH}")
        return 0 if all(r["error"] is None for r in records) else 1

    if args.trace:
        metrics = per_layer(records, tracer)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(records, setup_times, host.slowdown())
        units = END_TO_END_UNITS
    env = environment(args.seed)
    info = details(records, rounds, setup_times)
    info["host_slowdown"] = host.slowdown()
    info["reference_samples"] = len(host.samples)
    info["raw"] = end_to_end(records, setup_times)
    failed = sum(r["error"] is not None for r in records)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "details": info, "result": result, "records": records}, fh)
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl")

    print(f"# touropt bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ops={len(records)} "
          f"failed={failed} (ops_failed_frac={failed / len(records):.4g})")
    for name, unit in units.items():
        print(f"{name:<24} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({"env": env}))
    print(json.dumps({"details": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
