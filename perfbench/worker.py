"""Run a list of quadint CLI operations in one process and record them.

    python3 perfbench/worker.py JOB.json

JOB.json holds `ops` (argv lists without --out), `report` (the --out path),
`results` (where to write the record), `seconds`, `warmup` (run the first
operation once untimed), `whole_cycles` (stop only at the end of a pass over
`ops`; otherwise stop at the first operation that would start after
`seconds`) and `trace`.  Operations go through `quadint.cli.main`, the
public entry point, with `src` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback


def run_op(main, argv: list[str], report: str, tracer, op_id: int) -> dict:
    """Run one operation; the timed region is the `main` call alone."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(report)
    err = io.StringIO()
    rc, error = None, None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(argv + ["--out", report])
            else:
                tracer.op_id = op_id
                rc = tracer.span("bench.op", "bench", main, argv + ["--out", report])
    except Exception:  # a crash is a failed operation, not the end of the run
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    try:
        with open(report, encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        text = None
    return {"argv": argv, "rc": rc, "wall_s": wall, "report": text,
            "stderr": err.getvalue(), "error": error}


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    from quadint import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    ops, records = job["ops"], []
    if job["warmup"]:
        rec = run_op(cli.main, ops[0], job["report"], tracer, -1)
        rec["warmup"] = True
        records.append(rec)
    start = time.perf_counter()
    i = 0
    while True:
        rec = run_op(cli.main, ops[i % len(ops)], job["report"], tracer, i)
        rec["warmup"] = False
        records.append(rec)
        i += 1
        elapsed = time.perf_counter() - start
        if job["whole_cycles"]:
            if i % len(ops) == 0 and elapsed * (1 + len(ops) / i) > job["seconds"]:
                break
        elif elapsed >= job["seconds"]:
            break

    out = {"ops": records}
    if tracer is not None:
        out.update(spans=tracer.spans, absent=tracer.absent,
                   fft_entry_points=tracer.fft_entry_points)
    with open(job["results"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
