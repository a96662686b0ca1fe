"""Record the reference outcomes of every unit run under the default seed.

    python3 perfbench/record_reference.py

Runs each workload for BENCHMARK.json's run_seconds at the default seed,
checking invariants only, and writes perfbench/reference.json. Run it
only when a change to graphcd is meant to change these outputs.
"""
from __future__ import annotations

import json
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent


def main():
    run.import_graphcd()
    import workloads

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads._REFERENCE = {}
    ref = {}
    for name, wl in workloads.WORKLOADS.items():
        m = workloads.Measurement()
        wl.run(workloads.DEFAULT_SEED, seconds, m, isolate=False)
        if m.failed:
            raise SystemExit(f"{name}: {m.failures}")
        ref[name] = m.outcomes
        print(f"{name}: {len(m.outcomes)} units", flush=True)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
