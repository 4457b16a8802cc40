"""Runs one round of a workload in a fresh interpreter and reports each op.

    python3 bench/worker.py ROUND_DIR TRACE

ROUND_DIR holds the round's input files and ``ops.json``, which gives each op
its argv; TRACE is 1 to record spans (see tracer.py).  Every op
is one in-process ``mpst.cli.run(argv)`` with stdout and stderr captured.  One
JSON object goes to stdout: per-op status, seconds and verdict, the round's
wall time, the peak RSS after the last op that completed before any op timed
out and, when traced, the per-layer figures.  Known answers are compared by
the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path


# Seconds an op may take before it counts as failed: about ten times the
# slowest op that completes, a 3 s check, on a 2-core x86-64 machine.
OP_LIMIT_S = 30.0


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program eats it."""


def _alarm(signum, frame):
    raise OpTimeout()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_ops(cli, ops: list[dict], root: Path, tracer=None) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    rss, timed_out = _peak_rss_mb(), False
    wall0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op_id = op["id"]
        out, err = io.StringIO(), io.StringIO()
        argv = op["argv"] + [str(root / op["file"]), "--format", "json"]
        status, code, detail = "ok", None, None
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            status = "timeout"
        except Exception as exc:  # any failure of the program is an op result
            status, detail = "exception", f"{type(exc).__name__}: {exc}"[:300]
        seconds = time.perf_counter() - t0
        # A timed-out op's memory growth depends on how far it got, so the
        # high-water mark stops at the first timeout.
        timed_out = timed_out or status == "timeout"
        if status == "ok" and not timed_out:
            rss = _peak_rss_mb()
        records.append({"id": op["id"], "status": status, "seconds": seconds, "code": code,
                        "out": out.getvalue(), "detail": detail or err.getvalue()[:300]})
    wall = time.perf_counter() - wall0
    return {"wall_s": wall, "peak_rss_mb": rss, "ops": records}


def main(argv: list[str]) -> int:
    root, trace = Path(argv[0]), argv[1] == "1"
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from mpst import cli

    from workloads import verdict

    ops = json.loads((root / "ops.json").read_text(encoding="utf-8"))
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    result = run_ops(cli, ops, root, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(root / "spans.tsv")
    for rec in result["ops"]:
        text = rec.pop("out")
        rec["verdict"] = None
        if rec["status"] == "ok" and rec["code"] in (0, 1):
            try:
                rec["verdict"] = verdict(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                rec["detail"] = f"unreadable report: {exc}"[:300]
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
