"""Compare benchmark records of two commits.

    python3 e2ebench/compare.py BASE_DIR NEW_DIR

Each directory holds records written by ``run.py --out`` (any file
names); records pair up by workload, seed and trace flag.  The report
has three parts:

* **correctness** -- every record whose checks failed;
* **simulated statistics** -- per workload, "simulated stats identical"
  when every seed's deterministic statistics match, else what moved.
  A change that only speeds up the simulator must leave them identical.
  The model is unvalidated against hardware; no hardware error figure
  is given;
* **end-to-end metrics** -- per workload and metric, each side's median
  and the base's spread (interquartile range over median), judged
  against the bound in ``BENCHMARK.json``: ``worse`` when the new
  median is worse by more than the bound, ``unresolved`` when the
  base's own spread exceeds the bound (unless every new run beats every
  base run), else ``better`` or ``same``.

Exit code: 0 when nothing is worse, incorrect or unresolved, else 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

Key = Tuple[str, int, int]


def load_records(directory) -> Dict[Key, dict]:
    records = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        key = (record["workload"], int(record["seed"]), int(record["trace"]))
        records[key] = record
    return records


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: Dict[Key, dict], new: Dict[Key, dict],
            bench: dict) -> List[dict]:
    """Findings, one dict per (kind, workload[, metric])."""
    findings: List[dict] = []
    for key in sorted(set(base) | set(new)):
        for side, records in (("base", base), ("new", new)):
            r = records.get(key)
            if r is not None and not r["correct"]:
                findings.append({
                    "kind": "incorrect", "side": side, "workload": key[0],
                    "seed": key[1], "problems": r["problems"],
                })
    for workload in sorted({k[0] for k in base} | {k[0] for k in new}):
        moved = []
        for key in sorted(k for k in base if k[0] == workload and k in new):
            a, b = base[key]["sim"], new[key]["sim"]
            for field in sorted(set(a) | set(b)):
                if a.get(field) != b.get(field):
                    moved.append(f"seed {key[1]}: {field} "
                                 f"{a.get(field)!r} -> {b.get(field)!r}")
        findings.append({
            "kind": "sim", "workload": workload, "identical": not moved,
            "moved": moved,
        })
    for spec in bench["end_to_end"]:
        name, bound = spec["name"], spec["bound"]
        higher = spec["better"] == "higher"
        for workload in sorted({k[0] for k in base}):
            a = [r["metrics"][name]["value"] for k, r in base.items()
                 if k[0] == workload and k[2] == 0]
            b = [r["metrics"][name]["value"] for k, r in new.items()
                 if k[0] == workload and k[2] == 0]
            if not a or not b:
                continue
            q1, med_a, q3 = _quartiles(a)
            med_b = statistics.median(b)
            spread = (q3 - q1) / med_a if med_a else 0.0
            change = (med_b - med_a) / med_a if med_a else 0.0
            worse = -change if higher else change
            all_better = (min(b) > max(a)) if higher else (max(b) < min(a))
            if worse > bound:
                verdict = "worse"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif worse < -spread:
                verdict = "better"
            else:
                verdict = "same"
            findings.append({
                "kind": "metric", "workload": workload, "metric": name,
                "base_median": med_a, "new_median": med_b,
                "base_spread": spread, "change": change, "bound": bound,
                "verdict": verdict,
            })
    return findings


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("base", help="records of the parent commit")
    p.add_argument("new", help="records of the changed commit")
    p.add_argument("--benchmark", default=str(BENCHMARK))
    args = p.parse_args(argv)
    bench = json.loads(Path(args.benchmark).read_text())
    findings = compare(load_records(args.base), load_records(args.new),
                       bench)
    bad = 0
    for f in findings:
        if f["kind"] == "incorrect":
            bad += 1
            print(f"INCORRECT {f['side']} {f['workload']} seed {f['seed']}: "
                  f"{'; '.join(f['problems'])}")
        elif f["kind"] == "sim":
            if f["identical"]:
                print(f"{f['workload']}: simulated stats identical")
            else:
                print(f"{f['workload']}: simulated stats moved:")
                for line in f["moved"]:
                    print(f"    {line}")
        else:
            bad += f["verdict"] in ("worse", "unresolved")
            print(f"{f['workload']:<13} {f['metric']:<19} "
                  f"{f['base_median']:>12.5g} -> {f['new_median']:<12.5g} "
                  f"{f['change']:+7.1%} (spread {f['base_spread']:.1%}, "
                  f"bound {f['bound']:.0%}) {f['verdict']}")
    print("simulated statistics come from an unvalidated model; no "
          "hardware error figure is given")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
