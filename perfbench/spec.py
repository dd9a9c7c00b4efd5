#!/usr/bin/env python3
"""Write ``BENCHMARK.json`` at the root of the repository from the harness's
own definitions: the workloads and why they were chosen (``workloads.py``),
the end-to-end metrics and their bounds (``run.py``) and the per-layer
metrics (``tracing.py``).

    python3 perfbench/spec.py          # rewrite BENCHMARK.json
"""

from __future__ import annotations

import json

import run


def spec() -> dict:
    run._import_program()
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": run.RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in run.END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }


def text() -> str:
    return json.dumps(spec(), indent=2) + "\n"


if __name__ == "__main__":
    (run.ROOT / "BENCHMARK.json").write_text(text())
