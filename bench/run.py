"""The mpst benchmark: time to verdict, failures and memory per workload.

    python3 bench/run.py --workload statespace|inference|corpus
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The run measures the ``mpst`` package under
``src/`` with the standard library only:

* ``setup_s``: the median, over fresh interpreters, of the time to import
  ``mpst.cli`` and call ``build_parser()``, the cost every ``mpst`` call pays;
* rounds: each round runs the workload's fixed op list (workloads.py) in a
  fresh interpreter (worker.py), one op after another on one thread.  Rounds
  repeat, renamed, until ``--seconds`` is used up;
* every verdict is compared with its known answer.  corpus answers come from
  the brute-force oracles of ``tests/oracles.py`` (oracle.py), computed once
  per run outside the timed rounds.

It prints one line per metric and, last, one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, the end-to-end metrics with
``--trace 0`` and the per-layer ones with ``--trace 1``.  A traced run
alternates untraced and traced rounds; ``trace.overhead_share`` compares the
time they spend in ops that complete.  README.md says what each metric should
move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
OUT = HERE / "_out"

SETUP_SAMPLES = 25
SETUP_BATCH = 5
CHILD_TIMEOUT_S = 170.0

SETUP_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import mpst.cli\n"
    "mpst.cli.build_parser()\n"
    "print(time.perf_counter() - t0)\n"
)

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MPST_BUDGET", None)
    return env


def _child(argv: list[str]) -> str:
    """Run a fresh interpreter to completion and return its stdout."""
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=_env(), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited with {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def write_round(workloads, workload: str, seed: int, rnd: int, base: Path) -> tuple[Path, list]:
    inst = workloads.make(workload, seed, rnd)
    rdir = base / f"round{rnd}"
    rdir.mkdir(parents=True)
    for name, text in inst.files.items():
        (rdir / name).write_text(text, encoding="utf-8")
    ops = [{"id": op.id, "file": op.file, "argv": op.argv, "judge": op.expect is None} for op in inst.ops]
    (rdir / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
    return rdir, inst.ops


class Tally:
    """Op outcomes by kind: ok, unverified, wrong, timeout or exception."""

    FAILURES = ("wrong", "timeout", "exception")

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        self.failures: list[dict] = []

    def judge(self, ops, result: dict) -> None:
        from workloads import matches

        for op, rec in zip(ops, result["ops"]):
            if rec["status"] != "ok":
                kind = rec["status"]
            elif rec["verdict"] is None:
                kind = "wrong"  # usage error or no readable report
            elif op.expect is None:
                kind = "unverified"
            else:
                kind = "ok" if matches(rec["verdict"], op.expect) else "wrong"
            self.counts[kind] += 1
            if kind in self.FAILURES:
                self.failures.append({"op": op.id, "argv": op.argv, "kind": kind, "found": rec["verdict"],
                                      "expect": op.expect, "detail": rec["detail"]})

    @property
    def attempted(self) -> int:
        return sum(self.counts.values())

    @property
    def failed(self) -> int:
        return sum(self.counts[k] for k in self.FAILURES)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="statespace, inference, corpus or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mpst" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: no mpst sources and tests under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload == "all":
        return run_all(workloads.WORKLOADS, args)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    base = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        return measure(workloads, args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def run_all(names, args) -> int:
    """Every workload in turn, each in its own run; one JSON line for all."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [__file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} failed", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


class Setup:
    """setup_s samples, spread over the run so that one slow spell of the
    machine moves few of them."""

    def __init__(self, wanted: int):
        self.wanted = wanted
        self.samples: list[float] = []
        _child(["-c", SETUP_PROBE])  # writes the bytecode caches; not counted

    def take(self, n: int) -> None:
        for _ in range(min(n, self.wanted - len(self.samples))):
            self.samples.append(float(_child(["-c", SETUP_PROBE])))

    def median(self) -> float:
        self.take(self.wanted)
        return statistics.median(self.samples)


def measure(workloads, args, base: Path) -> int:
    setup = Setup(SETUP_SAMPLES)
    setup.take(SETUP_BATCH)

    known: dict[int, dict | None] = {}
    if args.workload == "corpus":
        rdir, _ = write_round(workloads, args.workload, args.seed, 0, base / "oracle")
        t_oracle = time.perf_counter()
        known = {int(k): v for k, v in json.loads(_child([str(HERE / "oracle.py"), str(rdir)])).items()}
        print(f"# oracle: {time.perf_counter() - t_oracle:.1f} s", file=sys.stderr)

    tally = Tally()
    walls, rss, layers = [], [], []
    op_ms: dict[int, list[float]] = {}  # op id -> its time in each untraced round
    untraced_busy, traced_busy = [], []  # seconds in ops that completed
    started = time.perf_counter()
    longest = 0.0
    rnd = 0
    while rnd < 2 or time.perf_counter() - started + longest <= args.seconds:
        traced = bool(args.trace) and rnd % 2 == 1
        rdir, ops = write_round(workloads, args.workload, args.seed, rnd, base)
        for op in ops:
            if op.expect is None:
                op.expect = known.get(op.id)
        t0 = time.perf_counter()
        result = json.loads(_child([str(HERE / "worker.py"), str(rdir), str(int(traced))]))
        tally.judge(ops, result)
        print(f"# round {rnd}{' traced' if traced else ''}: {result['wall_s']:.3f} s, "
              f"peak RSS {result['peak_rss_mb']:.1f} MB", file=sys.stderr)
        busy = sum(rec["seconds"] for rec in result["ops"] if rec["status"] == "ok")
        if traced:
            traced_busy.append(busy)
            layers.append(result["layers"])
            OUT.mkdir(exist_ok=True)
            shutil.copyfile(rdir / "spans.tsv", OUT / f"spans-{args.workload}-{args.seed}.tsv")
        else:
            walls.append(result["wall_s"])
            untraced_busy.append(busy)
            rss.append(result["peak_rss_mb"])
            for rec in result["ops"]:
                op_ms.setdefault(rec["id"], []).append(1000.0 * rec["seconds"])
        shutil.rmtree(rdir)
        setup.take(SETUP_BATCH)
        longest = max(longest, time.perf_counter() - t0)
        rnd += 1
    setup_s = setup.median()

    w = args.workload
    for example in tally.failures[:5]:
        print(f"# failed op: {json.dumps(example)}", file=sys.stderr)
    print(f"{w}\trounds\t{rnd}\tcount\t({len(walls)} untraced, {len(layers)} traced)")
    print(f"{w}\tops\t{len(op_ms)}\tcount\t(ops behind op_p50_ms and op_p90_ms, each timed {len(walls)} times)")
    print(f"{w}\tsetup_samples\t{len(setup.samples)}\tcount")
    print(f"{w}\tops.attempted\t{tally.attempted}\tcount")
    for kind in ("ok", "unverified") + Tally.FAILURES:
        print(f"{w}\tops.{kind}\t{tally.counts[kind]}\tcount")
    print(f"{w}\tfail_share\t{tally.failed / tally.attempted:.6g}\tratio")

    if args.trace:
        metrics = {name: statistics.median(layer[name] for layer in layers) for name in sorted(layers[0])}
        metrics["trace.overhead_share"] = statistics.median(traced_busy) / statistics.median(untraced_busy) - 1.0
        report = {name: {"value": value, "unit": layer_unit(name)} for name, value in metrics.items()}
    else:
        # Each op's median over the rounds, so that a slow spell of the
        # machine during one round moves few of the samples.
        per_op = [statistics.median(times) for times in op_ms.values()]
        values = {
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(per_op),
            "op_p90_ms": percentile(per_op, 90),
            "ok_share": tally.counts["ok"] / max(tally.attempted - tally.counts["unverified"], 1),
            "peak_rss_mb": statistics.median(rss),
            "setup_s": setup_s,
        }
        report = {name: {"value": value, "unit": END_TO_END[name]} for name, value in values.items()}
    for name, entry in report.items():
        print(f"{w}\t{name}\t{entry['value']:.6g}\t{entry['unit']}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
