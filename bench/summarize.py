"""Summarize benchmark records over seeds.

    python3 bench/summarize.py .bench_out/*.json > summary.json

Reads the records bench/run.py writes to .bench_out/ and prints, per
workload, each metric's median over the records, its quartiles and the
quartile spread as a share of the median (statistics.quantiles, n=4), with
the seeds and the host of the first record. End-to-end metrics come from
--trace 0 records, per-layer ones from --trace 1 records.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def spread(values):
    med = statistics.median(values)
    out = {"n": len(values), "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, iqr_over_median=(q3 - q1) / med if med else None)
    return out


def summarize(paths):
    spec = json.loads(SPEC.read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    groups = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    out = {}
    for (workload, trace), records in sorted(groups.items()):
        records.sort(key=lambda r: r["host"]["seed"])
        names = layer_names if trace else list(records[0]["values"])
        entry = out.setdefault(workload, {})
        entry["per_layer" if trace else "end_to_end"] = {
            "seeds": [r["host"]["seed"] for r in records],
            "host": records[0]["host"],
            "metrics": {name: spread([r["values"][name] for r in records]) for name in names},
        }
    return out


if __name__ == "__main__":
    json.dump(summarize(sys.argv[1:]), sys.stdout, indent=2, sort_keys=True)
    print()
