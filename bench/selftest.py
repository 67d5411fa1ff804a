"""Self-test of the benchmark at a tiny size.

Run from the repository root:

    python3 bench/selftest.py

For each workload it checks that a plain and a traced run pass their
oracle, print exactly the metrics BENCHMARK.json declares with their
units, that layer self times and the unspanned remainder add up to the
traced wall time, that a corrupted expected verdict is caught, that
census makes no tensor calls, and that braid-monomial spends the most
self time in tensor.compose.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.abspath("src"))

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def expect(ok, what):
    if not ok:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def check_metrics(result, declared, what):
    metrics = result["metrics"]
    expect(set(metrics) == set(declared), f"{what}: metric names {sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        expect(NAME.match(name) is not None, f"{what}: bad metric name {name!r}")
        expect(UNIT.match(m["unit"]) is not None, f"{what}: bad unit {m['unit']!r}")
        expect(m["unit"] == declared[name], f"{what}: {name} unit {m['unit']!r}, declared {declared[name]!r}")
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def main():
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run.execute(workload, 1, 0.01, 0, tiny=True)
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: failed jobs in a plain run")
        check_metrics(plain, end_to_end, workload)

        traced = run.execute(workload, 1, 0.01, 1, tiny=True)
        expect(traced["correct"], f"{workload}: traced run failed or differs from the plain one")
        check_metrics(traced, per_layer, f"{workload} traced")
        values = {k: m["value"] for k, m in traced["metrics"].items()}
        self_total = sum(v for k, v in values.items() if k.endswith(".self_s"))
        wall, rest = values["trace.wall_s"], values["trace.unspanned_s"]
        expect(abs(self_total + rest - wall) < 1e-6 * max(wall, 1.0), f"{workload}: self times do not add up")
        expect(0.0 <= rest < wall, f"{workload}: unspanned time {rest} outside [0, {wall})")
        expect(values["cli.main.calls"] == values["trace.jobs"], f"{workload}: one cli.main span per job")
        tensor_calls = sum(v for k, v in values.items() if k.startswith("tensor.") and k.endswith(".calls"))
        if workload == "census":
            expect(tensor_calls == 0, f"census made {tensor_calls} tensor calls")
        else:
            expect(tensor_calls > 0, f"{workload} made no tensor calls")
        if workload == "braid-monomial":
            top = max((v, k) for k, v in values.items() if k.endswith(".self_s"))[1]
            expect(top == "tensor.compose.self_s", f"braid-monomial spends most self time in {top}")

        print(f"selftest {workload}: one FAILED line must follow, from a corrupted verdict", file=sys.stderr)
        corrupted = run.execute(workload, 1, 0.01, 0, tiny=True, corrupt=True)
        expect(corrupted["failed"] > 0, f"{workload}: a corrupted expected verdict went unnoticed")
        print(f"selftest {workload}: ok", file=sys.stderr)
    print("selftest passed")


if __name__ == "__main__":
    main()
