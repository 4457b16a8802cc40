"""Known answers for the corpus' random files, from ``tests/oracles.py``.

    python3 bench/oracle.py ROUND_DIR

Reads ``ops.json`` in ROUND_DIR and prints one JSON object mapping the id of
every op marked ``judge`` to its known answer, or to null when the oracle ran
out of its work allowance: such an op is counted as unverified, never as
correct.  Runs in its own interpreter, before the timed rounds, so it warms
no cache they use.  Renaming keeps every verdict, so the answers hold for
every round of the run.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

# Calls of naive_typecheck allowed per judged check.
TYPECHECK_ALLOWANCE = 1_000
STATE_CAP = 5_000


def main(argv: list[str]) -> int:
    root = Path(argv[0])
    repo = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(repo / "src"), str(repo)]
    from mpst.analysis import plays_global
    from mpst.frontend import parse
    from mpst.semantics import ExploreConfig, StateLimitExceeded, explore
    from mpst.terms import GlobalGraph

    from tests.oracles import (
        OracleWorkExceeded,
        deadlock_free_oracle,
        depth_oracle,
        lock_free_oracle,
        naive_typecheck,
    )

    def bounded_oracle(g: GlobalGraph) -> bool:
        for node in range(len(g.nodes)):
            sub = GlobalGraph(g.nodes, node)
            if any(depth_oracle(sub, p) == math.inf for p in plays_global(sub)):
                return False
        return True

    def answer(spec, argv: list[str]):
        command = argv[0]
        flag = dict(zip(argv, argv[1:]))
        if command == "check":
            g, m = spec.globals[flag["--global"]], spec.sessions[flag["--session"]]
            ignored = {p for p in flag["--ignored"].split(",") if p}
            try:
                return {"accepted": naive_typecheck(g, m, ignored, work=[TYPECHECK_ALLOWANCE])}
            except OracleWorkExceeded:
                return None
        if "--bounded" in argv:
            g = spec.globals[flag["--global"]]
            d = depth_oracle(g, flag["--depth"])
            return {"holds": [bounded_oracle(g)], "depth": ["inf" if d == math.inf else d]}
        m = spec.sessions[flag["--session"]]
        ignored = frozenset(p for p in flag["--ignored"].split(",") if p)
        try:
            graph = explore(m, ExploreConfig(max_states=STATE_CAP))
        except StateLimitExceeded:
            return None
        return {"holds": [lock_free_oracle(graph, ignored), deadlock_free_oracle(graph, ignored)]}

    ops = json.loads((root / "ops.json").read_text(encoding="utf-8"))
    specs: dict[str, object] = {}
    known = {}
    for op in ops:
        if not op["judge"]:
            continue
        if op["file"] not in specs:
            specs[op["file"]] = parse((root / op["file"]).read_text(encoding="utf-8"))
        known[op["id"]] = answer(specs[op["file"]], op["argv"])
    json.dump(known, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
