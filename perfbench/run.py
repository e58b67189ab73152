"""quadint benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is `src/quadint`,
driven only through its public CLI (`python -m quadint.cli` in a fresh
interpreter, or `quadint.cli.main` in a warm worker).  One client, closed
loop: each operation starts after the previous one ends.

--trace 0 measures the end-to-end metrics for S seconds.  --trace 1 spends
half of S on untraced operations and the rest on whole traced cycles, and
reports the per-layer metrics.  Every operation's exit code and report are
checked; the last stdout line is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 120.0
LAYERS = ("model", "analysis", "sampling", "exprdsl", "solver", "spectral")

END_TO_END = {
    "setup_s": "s",
    "time_to_solution_s": "s",
    "time_to_solution_tail_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.load_problem_s": "s",
    "cli.self_s": "s",
    "model.materialize_s": "s",
    "model.validate_assumptions_s": "s",
    "analysis.constants_report_s": "s",
    "analysis.estimate_M_s": "s",
    "analysis.estimate_M_calls": "count/op",
    "analysis.M_rigorous_share": "ratio",
    "sampling.ball_points_s": "s",
    "sampling.ball_points_calls": "count/op",
    "sampling.points": "count/op",
    "exprdsl.evaluate_arrays_s": "s",
    "exprdsl.evaluate_arrays_calls": "count/op",
    "exprdsl.points_evaluated": "count/op",
    "solver.picard_solve_s": "s",
    "solver.iterations": "count/op",
    "solver.step_s": "s",
    "solver.residual_original_system_s": "s",
    "spectral.fft_calls": "count/op",
    "spectral.fft_calls_per_iteration": "count/iter",
    "spectral.fft_s": "s",
    "spectral.fft_bytes_computed": "B/op",
    "spectral.h2_norm_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.trace_overhead_frac": "ratio",
    "bench.absent_names": "count",
}


# --- child processes ------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one client: keep any BLAS/OpenMP pool to a single thread (<= nproc)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Child:
    """A child process reaped with wait4, so its own peak RSS is known."""

    def __init__(self, cmd: list[str], root: Path, env: dict, stdout=subprocess.DEVNULL,
                 timeout: float = CHILD_TIMEOUT_S):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=stdout,
                                     stderr=subprocess.PIPE)
        self._timer = threading.Timer(timeout, self.proc.kill)
        self._timer.start()

    def finish(self) -> tuple[int, float, float, str]:
        """(exit code, wall seconds, peak RSS in MB, stderr)."""
        try:
            err = self.proc.stderr.read().decode("utf-8", "replace")
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            self._timer.cancel()
            self.proc.stderr.close()
        wall = time.perf_counter() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, wall, usage.ru_maxrss / 1024.0, err


def probe_setup(root: Path, env: dict, inputs: tuple[str, ...]) -> dict:
    """Launch a fresh interpreter that imports quadint.cli and loads the inputs;
    setup_s runs from the launch to its ready line."""
    child = Child([sys.executable, "perfbench/probe.py", *inputs], root, env,
                  stdout=subprocess.PIPE)
    line = child.proc.stdout.readline()
    ready = time.perf_counter() - child.t0
    child.proc.stdout.read()
    child.proc.stdout.close()
    rc, _, _, err = child.finish()
    if rc != 0 or not line:
        raise RuntimeError(f"set-up probe failed (exit {rc}): {err.strip()[-400:]}")
    info = json.loads(line)
    info["setup_s"] = ready
    return info


def import_scipy_s(root: Path, env: dict) -> float:
    """Cumulative import time of the outermost scipy modules under
    `python -X importtime -c 'import quadint.cli'`."""
    child = Child([sys.executable, "-X", "importtime", "-c", "import quadint.cli"], root, env)
    rc, _, _, err = child.finish()
    if rc != 0:
        raise RuntimeError(f"importtime probe failed (exit {rc})")
    total_us = 0
    stack: list[tuple[int, bool]] = []  # (depth, is scipy) of enclosing imports
    lines = [ln for ln in err.splitlines() if ln.startswith("import time:") and "|" in ln]
    # children are printed before their parent; walk backwards to see parents first
    for ln in reversed(lines[1:]):
        _, cumulative, name = ln[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        module = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not any(s for _, s in stack):
            total_us += int(cumulative)
        stack.append((depth, is_scipy))
    return total_us / 1e6


def run_cold(root: Path, env: dict, cycle, report: Path, seconds: float) -> list[dict]:
    """Fresh `python -m quadint.cli` per operation until `seconds` have passed."""
    records, start, i = [], time.perf_counter(), 0
    while not records or time.perf_counter() - start < seconds:
        op = cycle[i % len(cycle)]
        report.unlink(missing_ok=True)
        child = Child([sys.executable, "-m", "quadint.cli", *op.argv, "--out", str(report)],
                      root, env)
        rc, wall, rss, err = child.finish()
        text = report.read_text(encoding="utf-8") if report.exists() else None
        records.append({"argv": list(op.argv), "rc": rc, "wall_s": wall, "rss_mb": rss,
                        "report": text, "stderr": err, "error": None, "warmup": False})
        i += 1
    return records


def run_worker(root: Path, env: dict, job: dict, out: Path, tag: str
               ) -> tuple[dict, float, float]:
    """Run perfbench/worker.py on a job; returns its record, its wall time
    and its peak RSS (MB)."""
    job_path, results = out / f"job-{tag}.json", out / f"results-{tag}.json"
    job = dict(job, results=str(results))
    job_path.write_text(json.dumps(job), encoding="utf-8")
    rc, wall, rss, err = Child([sys.executable, "perfbench/worker.py", str(job_path)],
                               root, env, timeout=job["seconds"] + CHILD_TIMEOUT_S).finish()
    if rc != 0 or not results.exists():
        raise RuntimeError(f"worker {tag} failed (exit {rc}): {err.strip()[-400:]}")
    return json.loads(results.read_text(encoding="utf-8")), wall, rss


# --- output checks ----------------------------------------------------------------

def check_op(op: workloads.Op, rec: dict, seen: dict) -> str | None:
    """Return why the operation failed, or None.  The report of a repeated
    argv must be byte-identical to the first one seen in this run."""
    if rec["error"]:
        return "crashed: " + rec["error"].strip().splitlines()[-1]
    if "Traceback" in rec["stderr"]:
        return "traceback on stderr"
    if rec["rc"] != op.expect_rc:
        return f"exit code {rec['rc']}, expected {op.expect_rc}"
    if rec["report"] is None:
        return "no report written"
    key = tuple(op.argv)
    if seen.setdefault(key, rec["report"]) != rec["report"]:
        return "report differs from an earlier run of the same file and seed"
    try:
        doc = json.loads(rec["report"])
    except json.JSONDecodeError:
        return "report is not JSON"
    if doc.get("certified") is not op.expect_certified:
        return f"certified is {doc.get('certified')}, expected {op.expect_certified}"
    if op.expect_converged is not None:
        solve = doc.get("solve") or {}
        if solve.get("converged") is not op.expect_converged:
            return f"solve.converged is {solve.get('converged')}"
        if not solve.get("residual", float("inf")) <= op.tol:
            return f"residual {solve.get('residual')} above tolerance {op.tol}"
        # residual_original_system is |v - t_g(v)| by another code path: the
        # same quantity, so it may exceed the tolerance only by rounding
        ros = solve.get("residual_original_system", float("inf"))
        if not ros <= 2.0 * op.tol:
            return f"residual_original_system {ros} above 2 x tolerance {op.tol}"
    return None


def check_all(cycle, records: list[dict], seen: dict) -> list[str]:
    by_argv = {tuple(op.argv): op for op in cycle}
    failures = []
    for rec in records:
        reason = check_op(by_argv[tuple(rec["argv"])], rec, seen)
        rec["ok"] = reason is None
        if reason:
            failures.append(f"{' '.join(rec['argv'])}: {reason}")
    return failures


# --- statistics -------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the 11th
    largest value.  Returns (value, percentile)."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# span name -> (calls metric, span attribute, metric summing that attribute)
COUNTERS = {
    "analysis.estimate_M": ("analysis.estimate_M_calls", None, None),
    "sampling.ball_points": ("sampling.ball_points_calls", "points", "sampling.points"),
    "exprdsl.evaluate_arrays": ("exprdsl.evaluate_arrays_calls", "points",
                                "exprdsl.points_evaluated"),
    "spectral.fft": ("spectral.fft_calls", "bytes", "spectral.fft_bytes_computed"),
}


def span_metrics(groups: list[list], reports: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from traced operations, and the bases of the ratios.
    `groups` holds one span list per operation; times are medians over
    operations, counts are means per operation over whole cycles, so they
    repeat exactly."""
    n_ops = len(groups)
    per_op: dict[str, list[float]] = {}
    totals: dict[str, float] = {}
    step_times: list[float] = []
    fft_in_picard = 0

    def add(key: str, value: float) -> None:
        per_op.setdefault(key, []).append(value)

    for spans in groups:
        by_id = {s[0]: s for s in spans}
        child_time: dict[int, float] = {}
        for s in spans:
            if s[5] is not None:
                child_time[s[5]] = child_time.get(s[5], 0.0) + (s[4] - s[3])

        def ancestors(s):
            while s[5] is not None and s[5] in by_id:
                s = by_id[s[5]]
                yield s[1]

        def inclusive(names) -> float:
            return sum(s[4] - s[3] for s in spans
                       if s[1] in names and not any(a in names for a in ancestors(s)))

        for key, names in (
                ("cli.load_problem_s", {"cli.load_problem"}),
                ("model.materialize_s", {"model.materialize"}),
                ("model.validate_assumptions_s", {"model.validate_assumptions"}),
                ("analysis.constants_report_s", {"analysis.constants_report"}),
                ("analysis.estimate_M_s", {"analysis.estimate_M"}),
                ("sampling.ball_points_s", {"sampling.ball_points"}),
                ("exprdsl.evaluate_arrays_s", {"exprdsl.evaluate_arrays"}),
                ("solver.picard_solve_s", {"solver.picard_solve"}),
                ("solver.residual_original_system_s", {"solver.residual_original_system"}),
                ("spectral.fft_s", {"spectral.fft"}),
                ("spectral.h2_norm_s", {"spectral.h2_norm", "spectral.h2_norm_many"})):
            add(key, inclusive(names))
        layer_self = dict.fromkeys(LAYERS, 0.0)
        main_self = 0.0
        for s in spans:
            self_time = (s[4] - s[3]) - child_time.get(s[0], 0.0)
            if s[2] in layer_self:
                layer_self[s[2]] += self_time
            if s[1] == "cli.main":
                main_self += self_time
            if s[1] in COUNTERS:
                calls_key, attr, attr_key = COUNTERS[s[1]]
                totals[calls_key] = totals.get(calls_key, 0) + 1
                if attr_key:
                    totals[attr_key] = totals.get(attr_key, 0) + s[7].get(attr, 0)
            in_picard = "solver.picard_solve" in set(ancestors(s))
            if s[1] == "solver.apply_map_tg" and in_picard:
                step_times.append(s[4] - s[3])
            if s[1] == "spectral.fft" and in_picard:
                fft_in_picard += 1
        for layer, value in layer_self.items():
            add(f"{layer}.self_s", value)
        add("cli.self_s", main_self)

    docs = [json.loads(r["report"]) for r in reports if r["ok"]]
    iterations = sum((d.get("solve") or {}).get("iterations", 0) for d in docs)
    with_constants = [d["constants"] for d in docs if d.get("constants")]
    rigorous = sum(c["provenance"].get("M") == "rigorous-bound" for c in with_constants)

    metrics = {key: statistics.median(values) for key, values in per_op.items()}
    for calls_key, _, attr_key in COUNTERS.values():
        for key in filter(None, (calls_key, attr_key)):
            metrics[key] = totals.get(key, 0) / n_ops
    metrics["solver.iterations"] = iterations / n_ops
    metrics["solver.step_s"] = statistics.median(step_times) if step_times else 0.0
    metrics["spectral.fft_calls_per_iteration"] = fft_in_picard / iterations if iterations else 0.0
    metrics["analysis.M_rigorous_share"] = rigorous / len(with_constants) if with_constants else 0.0
    bases = {"traced_ops": n_ops, "iterations": iterations,
             "fft_calls_in_picard_solve": fft_in_picard,
             "M_rigorous": f"{rigorous}/{len(with_constants)}",
             "step_samples": len(step_times)}
    return metrics, bases


# --- machine record ------------------------------------------------------------------

def machine_record(root: Path, probe: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        caches.append(f"L{level}{suffix} {size}")
    commit = "not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": caches, "python": probe["python"],
            "numpy": probe["numpy"], "scipy": probe["scipy"],
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "threads": "one client process; OMP/OPENBLAS/MKL_NUM_THREADS=1"}


# --- main ---------------------------------------------------------------------------

def measure_untraced(wl, root: Path, env: dict, out: Path, seconds: float
                     ) -> tuple[list[dict], float]:
    """Untraced operations for `seconds`; returns the records and peak RSS (MB)."""
    report = out / "report.json"
    if wl.cold:
        records = run_cold(root, env, wl.cycle, report, seconds)
        return records, max(r["rss_mb"] for r in records)
    job = {"ops": [list(op.argv) for op in wl.cycle], "report": str(report),
           "seconds": seconds, "warmup": True, "whole_cycles": False, "trace": False}
    res, _, peak_rss = run_worker(root, env, job, out, "untraced")
    return res["ops"], peak_rss


def measure_traced(wl, root: Path, env: dict, out: Path, seconds: float
                   ) -> tuple[list[dict], list[list], dict]:
    """Whole traced cycles, at least one, for about `seconds`.  Returns the
    records, one span list per timed operation, and the tracer's notes."""
    report, ops = out / "report.json", [list(op.argv) for op in wl.cycle]
    if not wl.cold:
        job = {"ops": ops, "report": str(report), "seconds": seconds, "warmup": True,
               "whole_cycles": True, "trace": True}
        res, _, _ = run_worker(root, env, job, out, "traced")
        by_op: dict[int, list] = {}
        for s in res["spans"]:
            if s[6] is not None and s[6] >= 0:
                by_op.setdefault(s[6], []).append(s)
        timed = sum(not r["warmup"] for r in res["ops"])
        return res["ops"], [by_op.get(i, []) for i in range(timed)], res
    records, groups, start, i = [], [], time.perf_counter(), 0
    while True:  # one traced interpreter per operation
        job = {"ops": [ops[i % len(ops)]], "report": str(report), "seconds": 0,
               "warmup": False, "whole_cycles": True, "trace": True}
        res, wall, _ = run_worker(root, env, job, out, f"traced-{i}")
        res["ops"][0]["wall_s"] = wall  # the whole interpreter, as when untraced
        records += res["ops"]
        groups.append([s for s in res["spans"] if s[6] == 0])
        i += 1
        elapsed = time.perf_counter() - start
        if i % len(ops) == 0 and elapsed * (1 + len(ops) / i) > seconds:
            return records, groups, res


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    out = root / "perfbench" / "out" / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = child_env(root)
    wl = workloads.build(name, seed, root, out / "inputs")

    probes = [probe_setup(root, env, wl.inputs) for _ in range(SETUP_REPEATS)]
    machine = machine_record(root, probes[0])
    budget = seconds / 2 if trace else seconds
    untraced, peak_rss = measure_untraced(wl, root, env, out, budget)
    traced, groups, tracer_notes = (measure_traced(wl, root, env, out, budget) if trace
                                    else ([], [], {}))

    seen: dict = {}
    failures = check_all(wl.cycle, untraced, seen) + check_all(wl.cycle, traced, seen)
    attempted, failed = len(untraced) + len(traced), len(failures)
    timed = [r["wall_s"] for r in untraced if r["ok"] and not r["warmup"]]

    print(f"# machine: {json.dumps(machine)}")
    print(f"# workload {wl.name}, seed {seed}, trace {int(trace)}: closed loop, 1 client, "
          f"{'fresh interpreter' if wl.cold else 'warm worker'} per operation, "
          f"cycle of {len(wl.cycle)} operations")
    for f in failures[:20]:
        print(f"# FAILED {f}")

    metrics: dict[str, float] = {}
    notes: dict[str, str] = {}
    setup = [p["setup_s"] for p in probes]
    if timed:
        tail_value, pct = tail(timed)
        metrics.update({
            "setup_s": statistics.median(setup),
            "time_to_solution_s": statistics.median(timed),
            "time_to_solution_tail_s": tail_value,
            "peak_rss_mb": peak_rss,
        })
        notes.update({
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "time_to_solution_s": f"median of {len(timed)} operations",
            "time_to_solution_tail_s": (f"p{pct:.0f} of {len(timed)} operations "
                                        f"(11th slowest, 10 beyond)" if len(timed) > 10
                                        else f"slowest of {len(timed)} operations"),
            "peak_rss_mb": (f"largest of {len(untraced)} child interpreters" if wl.cold
                            else "warm worker process"),
        })
    traced_times = [r["wall_s"] for r in traced if r["ok"] and not r["warmup"]]
    if timed and traced_times:
        layer, bases = span_metrics(groups, [r for r in traced if not r["warmup"]])
        layer["cli.import_s"] = statistics.median(p["import_s"] for p in probes)
        layer["cli.import_scipy_s"] = import_scipy_s(root, env)
        layer["bench.trace_overhead_frac"] = (statistics.median(traced_times)
                                              / statistics.median(timed) - 1.0)
        layer["bench.absent_names"] = len(tracer_notes["absent"])
        metrics.update(layer)
        notes.update({
            "bases": json.dumps(bases),
            "absent": ", ".join(tracer_notes["absent"]) or "none",
            "fft_entry_points": ", ".join(tracer_notes["fft_entry_points"]),
            "trace_overhead": (f"median of {len(traced_times)} traced vs "
                               f"{len(timed)} untraced operations"),
        })

    wanted = PER_LAYER if trace else END_TO_END
    correct = failed == 0 and all(k in metrics for k in wanted)
    for key, unit in END_TO_END.items():
        if key in metrics:
            print(f"{key:<36} {metrics[key]:>14.6g} {unit:<10} {notes[key]}")
    print(f"{'failed_frac':<36} {failed / attempted:>14.6g} {'ratio':<10} "
          f"{failed}/{attempted} operations")
    if trace:
        for key, unit in PER_LAYER.items():
            if key in metrics:
                print(f"{key:<36} {metrics[key]:>14.6g} {unit}")
        for key in ("bases", "absent", "fft_entry_points", "trace_overhead"):
            if key in notes:
                print(f"# {key}: {notes[key]}")

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in wanted.items() if k in metrics}}
    (out / "result.json").write_text(json.dumps(
        {"result": result, "notes": notes, "machine": machine, "failures": failures,
         "setup_probes": probes, "workload": {"name": wl.name, "inputs": wl.inputs,
                                              "cycle": [op.to_dict() for op in wl.cycle]}},
        indent=2), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "quadint" / "cli.py").is_file():
        print("error: src/quadint not found; run from the root of a quadint checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        try:
            status |= run_workload(name, args.seed, args.seconds, bool(args.trace), root)
        except (OSError, RuntimeError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    sys.exit(main())
