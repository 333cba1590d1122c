"""Rewrite ``digests.json``: the sha256 of every op's stdout, per workload and seed.

    python3 perfbench/pin_digests.py --seeds 0-31

Run from the root of a checkout, and only when a change is meant to alter
what the CLI prints: the pins are how the benchmark enforces byte-stable
output.  An op whose own check fails is not pinned; the script exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

from run import HERE, import_cli
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    root = Path.cwd()
    cli = import_cli(root)
    pins: dict[str, dict[str, dict[str, str]]] = {}
    problems = 0
    work = root / ".perfbench_work" / f"pin-{os.getpid()}"
    for name, make in sorted(WORKLOADS.items()):
        for seed in range(first, last + 1):
            workload = make(seed)
            work.mkdir(parents=True, exist_ok=True)
            for rel, text in workload.files.items():
                (work / rel).write_text(text, encoding="utf-8")
            os.chdir(work)
            digests = {}
            for op in workload.ops:
                out, code = cli.run_command(list(op.argv))
                problem = op.check(out, code)
                if problem is not None:
                    print(f"{name} seed {seed} {op.name}: {problem}", file=sys.stderr)
                    problems += 1
                    continue
                digests[op.name] = hashlib.sha256(out.encode("utf-8")).hexdigest()
            os.chdir(root)
            shutil.rmtree(work)
            pins.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} ops pinned", flush=True)
    try:
        work.parent.rmdir()
    except OSError:
        pass
    (HERE / "digests.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
