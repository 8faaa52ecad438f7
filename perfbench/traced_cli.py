"""``python -m repro`` with the benchmark's tracer installed.

The traced pass of ``cli_service`` runs its CLI calls through this
script instead of ``python -m repro``, so the layers inside those
subprocesses are attributed too:

    python3 perfbench/traced_cli.py OUT.json run -d O -w pr --no-cache

writes the child's per-function aggregates to ``OUT.json`` and exits
with the CLI's own exit code.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import repro.cli
    import_s = time.perf_counter() - start

    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    tracer.wrap_function("repro.cli", "main", "cli", span=True)
    try:
        code = repro.cli.main(args)
    finally:
        tracer.remove()
        tracer.agg["import repro.cli"] = [1, import_s, import_s]
        tracer.module_of["import repro.cli"] = "cli"
        Path(out).write_text(json.dumps({
            "agg": tracer.agg, "module_of": tracer.module_of,
            "counts": tracer.counts}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
