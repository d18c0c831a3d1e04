"""Compare two run records written by ``run.py`` (under ``.perfbench/``).

Usage::

    python3 perfbench/compare.py BASE.json NEW.json

Refuses (exit 2) to compare runs whose workload manifests differ — a
different workload, seed or generated program set — so benchmark data
cannot drift silently between the two sides.  Otherwise prints, per
metric, both values and NEW/BASE.
"""

from __future__ import annotations

import json
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def comparable(base: dict, new: dict):
    """``None`` when the two records can be compared, else the reason."""
    a, b = base["manifest"], new["manifest"]
    if a["workload_digest"] != b["workload_digest"]:
        return (
            f"workload digests differ ({a['workload']} seed {a['seed']}: "
            f"{a['workload_digest'][:12]} vs {b['workload']} seed {b['seed']}: "
            f"{b['workload_digest'][:12]})"
        )
    if base["trace"] != new["trace"]:
        return "one run is traced and the other is not"
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 1
    base, new = load(argv[0]), load(argv[1])
    reason = comparable(base, new)
    if reason is not None:
        print(f"error: refusing to compare: {reason}", file=sys.stderr)
        return 2
    print(f"# {base['manifest']['workload']} seed {base['manifest']['seed']}: "
          f"{base['manifest']['source_digest'][:12]} -> {new['manifest']['source_digest'][:12]}")
    for name, m in base["metrics"].items():
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:8.3f}" if a else "       -"
        print(f"{name:34s} {a:14.4f} {b:14.4f} {ratio}  {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
