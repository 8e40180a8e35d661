#!/usr/bin/env python3
"""Name the layers that moved between two benchmark results.

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 1 --out base.json
    ... change the code ...
    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 1 --out new.json
    python3 bench/compare.py base.json new.json

Both files must come from the same workload. Every metric that moved is
listed with its base value and its ratio new/base. A call count moved if it
changed at all, since counts repeat exactly; any other metric moved if it
changed by more than MOVE_THRESHOLD. Metrics are grouped by span
(``linalg.StateVector``, ...) and the groups are sorted by the absolute
change in the span's ``self_ms``, largest first, so that a slower layer is
named rather than guessed.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

MOVE_THRESHOLD = 0.05


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def moved(name: str, base: float, new: float) -> bool:
    if name.endswith(".calls"):
        return base != new
    if base == 0.0:
        return new != 0.0
    return abs(new / base - 1.0) > MOVE_THRESHOLD


def changes(base: dict, new: dict) -> list[tuple[str, float, list[tuple[str, float, float]]]]:
    """Moved metrics as (span, self_ms change, [(metric, base, new)]), largest change first."""
    groups: dict[str, list[tuple[str, float, float]]] = {}
    for name, b in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        bv, nv = b["value"], new["metrics"][name]["value"]
        span, _, _ = name.rpartition(".")
        groups.setdefault(span or name, []).append((name, bv, nv))
    out = []
    for span, rows in groups.items():
        rows = [r for r in rows if moved(*r)]
        if not rows:
            continue
        self_delta = next((nv - bv for name, bv, nv in rows if name.endswith(".self_ms")), 0.0)
        out.append((span, self_delta, rows))
    out.sort(key=lambda g: abs(g[1]), reverse=True)
    return out


def ratio(base: float, new: float) -> str:
    return f"{new / base:.3f}x" if base else "new"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    if base["workload"] != new["workload"]:
        print(
            f"compare: workloads differ ({base['workload']} vs {new['workload']})",
            file=sys.stderr,
        )
        return 2
    print(
        f"workload {base['workload']}: base {base['env']['git_sha'][:12]} seed {base['seed']}"
        f" -> new {new['env']['git_sha'][:12]} seed {new['seed']}"
    )
    units = {k: m["unit"] for k, m in base["metrics"].items()}
    groups = changes(base, new)
    if not groups:
        print("no metric moved")
    for span, self_delta, rows in groups:
        print(f"{span}  (self_ms change {self_delta:+.6g})")
        for name, bv, nv in rows:
            print(f"  {name:<50} base {bv:>12.6g} {units[name]:<10} ratio {ratio(bv, nv)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
