"""Benchmark of the favard command line, end to end and layer by layer.

    python3 bench/run.py --workload exact --seed 1 --seconds 42 --trace 0

Run from the repository root.  The commands `decompose`, `reconstruct` and
`verify` are called in process through ``favard.cli.main(argv)``, in one
process and one thread, exactly as a user passes them; the workload seed
only shapes the generated atoms and samples that the commands receive.

Every output is checked against a reference that does not come from the
code under test (see workloads.py).  The last line of stdout is one JSON
object {correct, attempted, failed, metrics}: the end-to-end metrics with
``--trace 0``, the per-layer metrics of one traced pass with ``--trace 1``.
The full record (run context, per-case times, frontier table, spans) goes
to ``.bench_out/``.
"""

import os

# BLAS threads are pinned before numpy can be imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import frontier
import hostspeed
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="seconds of timed passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Program:
    """The favard command line, imported fresh from src/ and invoked in process."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "favard" or n.startswith("favard.")]:
            del sys.modules[name]
        self.cli = importlib.import_module("favard.cli")

    def invoke(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)  # looked up per call, so the tracer sees it
        except Exception as exc:  # a crash is a measured failure, not a benchmark error
            return workloads.Outcome(None, out.getvalue(), err.getvalue(), type(exc).__name__)
        return workloads.Outcome(rc, out.getvalue(), err.getvalue())


def _setup(args, workdir):
    """Import favard, generate the seeded inputs and load the fixtures.

    Returns the set-up time at the reference host speed, its raw time and
    what it made.
    """
    before = hostspeed.probe()
    start = time.perf_counter()
    program = Program()
    cases, atoms = workloads.build(args.workload, args.seed, workdir, program.invoke)
    seconds = time.perf_counter() - start
    return hostspeed.scale(seconds, before, hostspeed.probe()), seconds, program, cases, atoms


def _run_pass(program, cases, failures, outputs=None, tracer=None):
    """One pass over the case list.

    Returns the raw per-case times and the per-case times at the reference
    host speed: a host speed probe runs before each case and after the
    last, and each case is scaled by the two that bracket it.  Checks run
    after each command, outside its timed span.  outputs, when given,
    collects the bytes each case wrote.
    """
    times, probes = [], [hostspeed.probe()]
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        start = time.perf_counter()
        outcome = program.invoke(case.argv)
        times.append(time.perf_counter() - start)
        probes.append(hostspeed.probe())
        label = case.check(outcome)
        if label is not None:
            failures.append((case.name, label))
        if outputs is not None:
            outputs[case.name] = case.output_bytes(outcome)
    return times, [hostspeed.scale(t, *probes[i : i + 2]) for i, t in enumerate(times)]


def _tail(samples):
    """Highest of p50/p75/p90/p99 with at least ten samples beyond it, or None."""
    for p in (99, 90, 75, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            cut = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
            return {"percentile": p, "value": cut}
    return None


def _context(args):
    lines = sum(len(f.read_text().splitlines()) for f in sorted((SRC / "favard").glob("*.py")))
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_favard_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, workdir):
    record = {"context": _context(args)}
    setups, failures = [], []
    attempted = 0
    outputs = {}
    for _ in range(SETUP_REPEATS):
        seconds, raw, program, cases, atoms = _setup(args, workdir)
        setups.append((seconds, raw))
    if args.workload == "exact":
        # the first decompose of the atoms, once validated, is the reference
        # for every timed one
        bad, reference = workloads.validate_atoms(cases[-1], atoms, workdir, program.invoke)
        cases[-1].check = workloads.bytes_check(cases[-1].output, reference)
        attempted += 1
        if bad:
            failures.append(("atoms round trip", bad))
    # warm-up: the lightest case once, checked but not timed
    warm = cases[-1]
    label = warm.check(program.invoke(warm.argv))
    attempted += 1
    if label is not None:
        failures.append((warm.name, label))
    passes = []  # (raw per-case times, scaled per-case times)
    # stop at the pass that brings the measured time closest to --seconds
    while len(passes) < 2 or sum(sum(raw) for raw, _ in passes) + sum(passes[-1][0]) / 2 < args.seconds:
        passes.append(_run_pass(program, cases, failures, outputs))
        attempted += len(cases)
    peak_rss = _peak_rss_mb()
    wall = [sum(raw) for raw, _ in passes]
    # the median pass, built case by case: a case the host slowed while its
    # probes missed it is dropped by that case's median
    case_medians = [statistics.median(scaled[i] for _, scaled in passes) for i in range(len(cases))]
    record["cases"] = {c.name: [raw[i] for raw, _ in passes] for i, c in enumerate(cases)}
    record["cases_scaled"] = {c.name: [scaled[i] for _, scaled in passes] for i, c in enumerate(cases)}
    record["setup_s"] = [{"scaled": s, "raw": r} for s, r in setups]
    record["pass_wall_s"] = {"samples": wall, "median": statistics.median(wall), "tail": _tail(wall)}

    if args.trace:
        tracer = Tracer()
        traced_outputs = {}
        tracer.install()
        try:
            origin = time.perf_counter()
            traced, _ = _run_pass(program, cases, failures, traced_outputs, tracer)
        finally:
            tracer.uninstall()
        attempted += len(cases)
        for name, data in outputs.items():
            if traced_outputs.get(name) != data:
                failures.append((name, "traced run wrote different bytes than the untraced run"))
        metrics = tracer.layer_metrics(sum(traced) / statistics.median(wall))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", [c.name for c in cases], origin)
        record["span_table"] = tracer.span_table()
    else:
        levels, table = frontier.probe(program.invoke, workdir)
        record["frontier"] = table
        metrics = {
            "pass_s": (sum(case_medians), "s"),
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "pass_ratio": ((attempted - len(failures)) / attempted, "ratio"),
            "float_frontier_levels": (levels, "levels"),
        }
    record["failures"] = failures
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    return record, result


def _print_summary(record):
    print(json.dumps({"context": record["context"]}))
    for name, times in record["cases"].items():
        scaled = statistics.median(record["cases_scaled"][name])
        print(f"  {name:40s} median {statistics.median(times):8.4f} s, {scaled:8.4f} s scaled, over {len(times)} passes")
    wall = record["pass_wall_s"]
    tail = wall["tail"]
    tail = f"p{tail['percentile']} {tail['value']:.4f} s" if tail else "no tail (fewer than 20 passes)"
    print(f"  pass wall median {wall['median']:.4f} s over {len(wall['samples'])} passes; {tail}")
    for row in record.get("frontier", []):
        fail = f"fails at N={row['first_fail']}: {row['failure']}" if "first_fail" in row else "no failure probed"
        print(f"  frontier {row['measure']:26s} passes to N={row['largest_pass']}; {fail}")
    for name, label in record["failures"][:10]:
        print(f"  FAILED {name}: {label}")


def main(argv=None):
    args = _args(argv)
    if not (SRC / "favard" / "cli.py").is_file():
        print(f"error: favard sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        record, result = run(args, workdir)
    except RuntimeError as exc:  # a fixture or a seeded input could not be set up
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")
    _print_summary(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
