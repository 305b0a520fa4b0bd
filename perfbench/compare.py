"""Compare two saved outputs of perfbench/run.py.

Usage: python3 perfbench/compare.py BASE NEW

BASE and NEW each hold the standard output of one run of the same
workload.  The comparison is refused (exit 2) when the two runs used a
different kernel backend, different guard values, a different workload or
a different trace mode, because their numbers would not measure the same
program.  Otherwise each metric is printed with both values and NEW/BASE.
"""
from __future__ import annotations

import json
import sys

MUST_MATCH = ("backend", "guards", "workload", "trace")


def load(path: str) -> tuple[dict, dict]:
    lines = [line for line in open(path).read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a provenance line and a result line")
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def compare(base: tuple[dict, dict], new: tuple[dict, dict]) -> list[str]:
    """Lines of the comparison; raises ValueError when it is refused."""
    (base_prov, base_result), (new_prov, new_result) = base, new
    for key in MUST_MATCH:
        if base_prov.get(key) != new_prov.get(key):
            raise ValueError(
                f"refusing to compare: {key} differs "
                f"({base_prov.get(key)!r} vs {new_prov.get(key)!r})"
            )
    lines = []
    for name, old in base_result["metrics"].items():
        value = new_result["metrics"].get(name, {}).get("value")
        if value is None:
            lines.append(f"{name}: missing from NEW")
            continue
        ratio = f"{value / old['value']:.3f}" if old["value"] else "n/a"
        lines.append(f"{name}: {old['value']:.6g} -> {value:.6g} {old['unit']} ({ratio})")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        lines = compare(load(argv[1]), load(argv[2]))
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
