"""One traced operation in a fresh interpreter.

    python3 perfbench/traced_child.py SPANS_OUT OP_ID (cli ARGS... | setup GRAPH)

Imports walktimes (timing the import), installs the tracer, runs
`walktimes.cli.main(ARGS)` or the set-up prelude, and writes the spans
to SPANS_OUT as JSON when the operation ends. Exits with the
operation's exit code.
"""

from __future__ import annotations

import importlib
import json
import sys
import time


def main(argv: list[str]) -> int:
    out_path, op_id, kind, rest = argv[0], argv[1], argv[2], argv[3:]
    t0 = time.perf_counter()
    module = importlib.import_module("walktimes.cli" if kind == "cli" else "walktimes")
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tracer = Tracer(op_id)
    tracer.install()
    try:
        if kind == "cli":
            code = module.main(rest)
        else:
            import prelude
            print(json.dumps(prelude.run(rest[0])))
            code = 0
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
