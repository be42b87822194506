"""photonloc benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload kernels|oracle|cli --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; photonloc is imported from ``src/``.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the seven end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``. ``failed_frac`` counts every failed
operation; ``failed`` and ``correct`` count only failures outside the
program's known baseline defects (``verify.KNOWN_DEFECTS``), which are listed
by r/a band in the run record. A run record (seed, sample counts,
tail percentile, failures by r/a band, machine and library versions) goes to
stderr and to ``.perfbench-out/``.

Workloads, all single-process and closed-loop (one operation at a time):

* ``kernels``: the production library path, warm, at the default
  QuadratureSpec, over five entry points;
* ``oracle``: the brute-force library path, warm;
* ``cli``: one fresh ``python -m photonloc.cli`` process per operation, cold,
  because its users pay import and table build on every invocation.

A library workload times a fixed set of distinct operations in rounds (see
``workloads``). A run starts a few fresh worker processes one after another,
each timing whole rounds for its share of ``--seconds`` (at least one round),
and checks each worker's outputs before the next starts. Every worker's
set-up is a ``setup_s`` sample. The timing metrics take each operation at its
fastest round, and ``ops_per_s`` is the distinct operations over the sum of
their fastest times. On a shared 2-vCPU virtual machine the same operation
ran up to 1.6x slower for spells of a fraction of a second to minutes (its
thread CPU time grew alike, so it was not preempted); with every operation
timed once in one ten-second stretch, that moved the kernels median by up to
25% from run to run. A cli run is
whole passes of commands, each timed once (a pass takes longer than a run, so
a cli run is one pass). The timing run has tracing off; ``--trace 1`` runs the
same inputs once untraced and once traced, and reports the per-layer numbers
with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one process carries the load one operation at a time, and the operations'
# arrays are small: BLAS and OpenMP get one thread, which is within the cap of
# nproc. A second OpenBLAS thread only spins while it waits, so it takes a core
# from the measured thread on a shared host and adds to the run-to-run spread.
# Set before numpy is first imported, here and in every child.
BLAS_THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

#: cli set-up probes per run, whose median is setup_s
CLI_SETUP_SAMPLES = 3
#: library workers per run, so that setup_s is a median and each operation is
#: timed in at least two processes. The kernels workers time every operation
#: in eight processes, one after another, over about twice the run length;
#: with three, one slow spell of the machine (some last 15 s) often covered
#: all of an operation's timings and moved p50_ms by 20% between runs.
WORKERS = {"kernels": 8, "oracle": 2}
#: library rounds per run at most, which bounds the run's wall time and memory
#: even when time is left
MAX_ROUNDS = {"kernels": 24, "oracle": 4}
#: tail_ms percentile at the run length in BENCHMARK.json, over the distinct
#: operations. kernels: p99, 10 of 1000 beyond it. oracle: a round is 20
#: operations, five beyond p75. cli: a run is 15 commands, too few for ten
#: beyond any percentile above the median; p90 lies among the five
#: kernel-scans and moves less between runs than the slowest.
TAIL_PERCENTILE = {"kernels": 99.0, "oracle": 75.0, "cli": 90.0}
CLI_MAX_PASSES = 4
CHILD_TIMEOUT_S = 170.0
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "p50_ms": "ms", "tail_ms": "ms",
         "peak_rss_mb": "MB", "failed_frac": "1", "max_rel_err": "1"}


def _child_env() -> dict:
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _run_child(cmd, tag: str):
    """Run one child to completion: (exit code, stdout, peak RSS in MB, seconds)."""
    with open(OUT / f"{tag}.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    if os.path.getsize(err.name) == 0:
        os.unlink(err.name)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss * 1024 / 1e6, elapsed


def _worker(args, first: int, seconds: float, max_rounds: int, tag: str, spans=None) -> dict:
    """One fresh library worker timing rounds from ``first`` on; returns its header and arrays."""
    path = OUT / f"{tag}.npz"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--first-round", str(first), "--seconds", repr(seconds),
           "--max-rounds", str(max_rounds), "--out", str(path)]
    if spans:
        cmd += ["--spans", str(spans)]
    code, _, _, _ = _run_child(cmd + ["--t0", repr(time.monotonic())], tag)
    if code != 0:
        raise SystemExit(f"perfbench: worker {tag} exited {code}; see {OUT / (tag + '.stderr')}")
    with np.load(path) as data:
        result = {key: data[key] for key in data.files}
    path.unlink()
    result["header"] = json.loads(str(result["header"]))
    return result


class Checker:
    """Per-operation correctness, with the reference of each distinct operation
    computed once and rescaled to the round that ran it."""

    def __init__(self, workload: str, seed: int | None = None):
        self.workload = workload
        self.records = []  # (band, failed, known defect, max_rel_err or None, detail)
        if workload != "cli":
            self._distinct = workloads.library_round(workload, seed, 0)
        self._refs = {}

    def library(self, ops, result, first: int):
        """``ops`` are the run's operations from position ``first`` on; a
        position holds the same operation in the untraced and the traced run."""
        errors = {int(k): v for k, v in result["header"]["errors"].items()}
        offsets, values = result["offsets"], result["values"]
        for index in range(len(result["times"])):
            op = ops[index]
            err = None
            if index not in errors:
                k, distinct = divmod(first + index, len(self._distinct))
                if distinct not in self._refs:
                    self._refs[distinct] = verify.library_reference(self._distinct[distinct])
                ref = verify.rescaled_reference(*self._refs[distinct], workloads.round_factor(k))
                err = verify.library_error(values[offsets[index]:offsets[index + 1]], *ref)
            failed = err is None or not err <= verify.TOL
            known = failed and verify.library_known_defect(self.workload, op)
            detail = errors.get(index) or f"{op['entry']} r/a={op['r_over_a']:.4g} err={err:.3e}"
            self.records.append((verify.band(op["r_over_a"]), failed, known, err, detail))

    def cli(self, argv, returncode, stdout, earlier):
        err, problems, known = verify.cli_result(argv, returncode, stdout, earlier)
        detail = " ".join(argv) + ": " + "; ".join(problems)
        self.records.append((verify.cli_band(argv), bool(problems), known, err, detail))

    def summary(self) -> dict:
        by_band = {}
        for b, failed, *_ in self.records:
            row = by_band.setdefault(b, {"attempted": 0, "failed": 0})
            row["attempted"] += 1
            row["failed"] += int(failed)
        errs = [e for *_, e, _ in self.records if e is not None and math.isfinite(e)]
        return {
            "attempted": len(self.records),
            "failed": sum(f for _, f, *_ in self.records),
            "known_defect_failures": sum(k for _, _, k, *_ in self.records),
            "unexpected": [d for _, f, k, _, d in self.records if f and not k],
            "by_band": by_band,
            # an operation without a finite error is counted in failed; with none
            # at all the run is broken, and the largest float keeps the JSON valid
            "max_rel_err": max(errs) if errs else sys.float_info.max,
        }


def _timing_metrics(workload, times, wall_s, setup, rss_mb, summary) -> dict:
    """``times``: one time per operation; ``ops_per_s`` is their count over ``wall_s``."""
    times_ms = np.asarray(times) * 1e3
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(times) / wall_s,
        "p50_ms": float(np.median(times_ms)),
        "tail_ms": float(np.percentile(times_ms, TAIL_PERCENTILE[workload])),
        "peak_rss_mb": rss_mb,
        "failed_frac": summary["failed"] / summary["attempted"],
        "max_rel_err": summary["max_rel_err"],
    }


def _library_rounds(args, checker, tag, traced_spans=None) -> dict:
    """The workers of one run, each checked when it ends."""
    times, setup, imports, rss, loop_s = [], [], [], 0.0, 0.0
    totals, absent, span_count = None, set(), 0
    workers = WORKERS[args.workload]
    for w in range(workers):
        first = len(times)
        worker_spans = None if traced_spans is None else OUT / f"{tag}-worker{w}.jsonl"
        result = _worker(args, first, args.seconds / workers,
                         (MAX_ROUNDS[args.workload] - first) // (workers - w),
                         f"{tag}-worker{w}", spans=worker_spans)
        h = result["header"]
        ops = [op for k in range(first, first + h["rounds"])
               for op in workloads.library_round(args.workload, args.seed, k)]
        checker.library(ops, result, first * len(ops) // h["rounds"])
        times.extend(result["times"].reshape(h["rounds"], -1))
        setup.append(h["setup_s"])
        imports.append(h["import_s"])
        rss = max(rss, h["peak_rss_mb"])
        loop_s += h["loop_s"]
        if traced_spans is not None:
            totals = h["trace_totals"] if totals is None else tracing.add_totals(totals, h["trace_totals"])
            absent.update(h["absent"])
            span_count += h["spans"]
            with open(traced_spans, "a") as merged:
                for line in worker_spans.read_text().splitlines():
                    span = json.loads(line)
                    span["worker"] = w
                    merged.write(json.dumps(span) + "\n")
            worker_spans.unlink()
    return {"times": np.array(times), "setup": setup, "imports": imports, "rss": rss,
            "loop_s": loop_s, "totals": totals, "absent": sorted(absent), "spans": span_count}


def run_library(args, record: dict):
    checker = Checker(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    if not args.trace:
        result = _library_rounds(args, checker, tag)
        # each distinct operation at its fastest round
        fastest = result["times"].min(axis=0)
        summary = checker.summary()
        metrics = _timing_metrics(args.workload, fastest, fastest.sum(), result["setup"],
                                  result["rss"], summary)
        record["samples"] = {"setup_s": len(result["setup"]), "ops": len(fastest),
                             "timings_per_op": len(result["times"]),
                             "peak_rss_mb": len(result["setup"])}
        record["round_p50_ms"] = [float(np.median(t)) * 1e3 for t in result["times"]]
        return metrics, summary

    spans = OUT / f"trace-{tag}.jsonl"
    spans.write_text("")
    plain = _library_rounds(args, checker, f"{tag}-untraced")
    traced = _library_rounds(args, checker, f"{tag}-traced", traced_spans=spans)
    layer = _layer_metrics(
        traced["totals"], traced["absent"], traced["spans"], traced["imports"],
        untraced=plain["times"].size / plain["loop_s"],
        traced=traced["times"].size / traced["loop_s"])
    record["samples"] = {"ops_untraced": plain["times"].size, "ops_traced": traced["times"].size}
    record["spans_file"] = str(spans.relative_to(ROOT))
    record["absent_layers"] = traced["absent"]
    return layer, checker.summary()


def _cli_pass(args, checker, seen, tag, traced_spans=None):
    """Whole passes of the cli commands until the time is up."""
    times, rss, totals, imports, absent, span_count = [], [], None, [], set(), 0
    argvs = workloads.cli_pass(args.seed)
    start = time.perf_counter()
    passes = 0
    while passes < CLI_MAX_PASSES and time.perf_counter() - start < args.seconds:
        passes += 1
        for argv in argvs:
            index = len(times)
            if traced_spans is None:
                cmd = [sys.executable, "-m", "photonloc.cli", *argv]
            else:
                child_spans = OUT / f"{tag}-op{index}.json"
                cmd = [sys.executable, str(HERE / "cli_child.py"), "--spans", str(child_spans),
                       "--", *argv]
            code, out, peak, elapsed = _run_child(cmd, f"{tag}-op{index}")
            key = tuple(argv)
            checker.cli(argv, code, out, seen.get(key))
            seen.setdefault(key, out)
            times.append(elapsed)
            rss.append(peak)
            if traced_spans is not None:
                data = json.loads(child_spans.read_text())
                child_totals = data["totals"]
                totals = child_totals if totals is None else tracing.add_totals(totals, child_totals)
                imports.append(data["import_s"])
                absent.update(data["absent"])
                span_count += data["spans"]
                part = Path(str(child_spans) + ".jsonl")
                with open(traced_spans, "a") as merged:
                    for line in part.read_text().splitlines():
                        span = json.loads(line)
                        span["op"] = index
                        merged.write(json.dumps(span) + "\n")
                part.unlink()
                child_spans.unlink()
    wall = time.perf_counter() - start
    return {"times": times, "wall": wall, "rss": max(rss), "passes": passes,
            "totals": totals, "imports": imports, "absent": sorted(absent), "spans": span_count}


def run_cli(args, record: dict):
    checker = Checker("cli")
    seen = {}
    tag = f"cli-seed{args.seed}"
    if not args.trace:
        setup = []
        for i in range(CLI_SETUP_SAMPLES):
            cmd = [sys.executable, str(HERE / "cli_child.py"), "--ready", "--t0", repr(time.monotonic())]
            code, out, _, _ = _run_child(cmd, f"{tag}-probe{i}")
            if code != 0:
                raise SystemExit(f"perfbench: cli set-up probe exited {code}")
            setup.append(json.loads(out)["setup_s"])
        result = _cli_pass(args, checker, seen, tag)
        summary = checker.summary()
        metrics = _timing_metrics("cli", result["times"], result["wall"], setup,
                                  result["rss"], summary)
        record["samples"] = {"setup_s": len(setup), "ops": len(result["times"]),
                             "peak_rss_mb": len(result["times"]), "passes": result["passes"]}
        return metrics, summary

    spans = OUT / f"trace-{tag}.jsonl"
    spans.write_text("")
    plain = _cli_pass(args, checker, seen, f"{tag}-untraced")
    traced = _cli_pass(args, checker, seen, f"{tag}-traced", traced_spans=spans)
    layer = _layer_metrics(traced["totals"], traced["absent"], traced["spans"], traced["imports"],
                           untraced=len(plain["times"]) / plain["wall"],
                           traced=len(traced["times"]) / traced["wall"])
    record["samples"] = {"ops_untraced": len(plain["times"]), "ops_traced": len(traced["times"])}
    record["spans_file"] = str(spans.relative_to(ROOT))
    record["absent_layers"] = traced["absent"]
    return layer, checker.summary()


def _layer_metrics(totals, absent, spans, imports, untraced, traced) -> dict:
    metrics = tracing.metrics(totals)
    metrics["cli.import_s"] = (statistics.median(imports), "s")
    metrics["trace.ops_per_s_untraced"] = (untraced, "1/s")
    metrics["trace.ops_per_s_traced"] = (traced, "1/s")
    metrics["trace.overhead"] = (untraced / traced - 1.0, "1")
    metrics["trace.layers_absent"] = (len(absent), "count")
    metrics["trace.spans"] = (spans, "count")
    return metrics


def _environment() -> dict:
    import mpmath
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": NPROC,
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas,
        "thread_cap": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("kernels", "oracle", "cli"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "photonloc" / "__init__.py").is_file():
        print(f"perfbench: no photonloc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "tail_percentile": TAIL_PERCENTILE[args.workload]}
    run = run_cli if args.workload == "cli" else run_library
    start = time.monotonic()
    metrics, summary = run(args, record)
    record["wall_s"] = time.monotonic() - start
    unexpected = summary.pop("unexpected")
    record.update(summary, unexpected_failures=unexpected[:20],
                  known_defect=verify.KNOWN_DEFECTS[args.workload],
                  environment=_environment())
    if args.trace:
        out_metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        out_metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    record["metrics"] = out_metrics
    text = json.dumps(record, indent=1)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text)
    print(text, file=sys.stderr)
    print(json.dumps({"correct": not unexpected, "attempted": summary["attempted"],
                      "failed": len(unexpected), "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
