"""Growth of one `certify` call with the label: tri(m,4,4) for a few m.

    python3 benchmark/sweep.py

Each m runs in a fresh process, so its peak RSS is its own.  This is a
one-off measurement for README.md, not part of the gated runs.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LABELS = (5, 25, 101, 201, 401)


def measure(m: int) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import artinsplit

    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    g = artinsplit.DefiningGraph.build(
        "abc", [("a", "b", m, "a"), ("b", "c", 4, "b"), ("a", "c", 4, "c")])
    start = time.perf_counter()
    cert = artinsplit.certify(g)
    cert.to_json()
    seconds = time.perf_counter() - start
    return {"m": m, "rule": cert.rule, "seconds": seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "rss_after_import_mb": rss_before}


def main(argv: list[str]) -> None:
    if argv[:1] == ["--one"]:
        print(json.dumps(measure(int(argv[1]))))
        return
    for m in LABELS:
        proc = subprocess.run([sys.executable, __file__, "--one", str(m)],
                              capture_output=True, text=True, check=True,
                              timeout=900)
        row = json.loads(proc.stdout)
        print(f"tri({m},4,4)  {row['rule']}  {row['seconds']:9.3f} s  "
              f"peak RSS {row['peak_rss_mb']:7.1f} MiB "
              f"({row['rss_after_import_mb']:.1f} MiB after import)")


if __name__ == "__main__":
    main(sys.argv[1:])
