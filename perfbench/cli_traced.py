"""``python -m susypv.cli`` with every layer traced, for the cli workload's traced run.

    python3 perfbench/cli_traced.py SUMMARY.json SPANS.npz TASK_ID solve ...

Times the cold ``import susypv.cli``, installs the span wrappers, runs
the CLI's ``main`` on the remaining arguments and exits with its code.
The per-layer totals go to SUMMARY.json and the spans to SPANS.npz.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter


def main() -> int:
    summary_path, spans_path, task_id = sys.argv[1], sys.argv[2], int(sys.argv[3])
    argv = sys.argv[4:]
    t0 = perf_counter()
    import susypv.cli as cli

    import_s = perf_counter() - t0
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_task(task_id)
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "trace": tracer.summary()}, fh)


if __name__ == "__main__":
    sys.exit(main())
