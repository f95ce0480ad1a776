"""Record the reference outputs the checker compares against on the default seed.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every operation of each workload once on the default seed, checks
the outputs with everything except the reference comparison, and
writes perfbench/reference/<workload>.json. Re-record only when a
change to the program is meant to change its output.
"""

from __future__ import annotations

import json
import shutil
import sys

from check import check, values
from run import DEFAULT_SEED, HERE, ROOT, WORKLOADS, Context, Runner


def record(name: str) -> None:
    work = ROOT / ".perfbench" / f"record-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ctx = Context(name, DEFAULT_SEED, work)
        ctx.reference = None
        runner = Runner(work)
        ops = {}
        for op in dict.fromkeys(WORKLOADS[name].ops):
            res = runner.spawn(runner.command(ctx, op))
            problems = check(ctx, op, res.code, res.out, res.err)
            if problems:
                raise SystemExit(f"{name}/{op}: {problems}")
            ops[op] = values(op, res.out, res.err)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = HERE / "reference" / f"{name}.json"
    out.parent.mkdir(exist_ok=True)
    body = ",\n".join(f"  {json.dumps(op)}: {json.dumps(v)}" for op, v in ops.items())
    out.write_text(f'{{"workload": "{name}", "seed": {DEFAULT_SEED}, "ops": {{\n{body}\n}}}}\n')
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        record(name)
