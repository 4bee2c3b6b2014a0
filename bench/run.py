"""Run one benchmark workload against the source tree and report it.

    python3 bench/run.py --workload {census,stream,exchange,algebra} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  mlmagma is imported from the
checkout's `src/`, as the tier-1 tests do, never from an installed copy.
The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics and tracing overhead with `--trace 1`.  The lines
before it name every figure in its own unit.  The full record (stamp,
sizes, figures, failures, and with tracing the spans) is written to
`bench/out/`.  Exit code 0 means every check passed; 1 means a check
failed or the run could not be set up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def use_source_tree() -> None:
    """Put the checkout's src/ first on sys.path and import mlmagma from it."""
    if not (SRC / "mlmagma" / "__init__.py").is_file():
        raise SystemExit(f"bench: no mlmagma source tree under {SRC}")
    sys.path.insert(0, str(SRC))
    import mlmagma
    if Path(mlmagma.__file__).resolve().parent != SRC / "mlmagma":
        raise SystemExit(f"bench: mlmagma imported from {mlmagma.__file__}, "
                         f"not from {SRC}")


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stamp(args, sizes) -> dict:
    import numpy
    import mlmagma
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": numpy.__version__, "mlmagma": mlmagma.__version__,
        "commit": git_commit(), "threads": 1, "sizes": asdict(sizes),
    }


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("census", "stream", "exchange", "algebra"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, sizes=None, out_dir: Path = OUT) -> int:
    args = parse(argv)
    use_source_tree()
    import workloads

    sizes = sizes or workloads.FULL
    record = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), sizes)
    record["stamp"] = stamp(args, sizes)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    units = {name: unit for name, unit, _ in
             (workloads.PER_LAYER if args.trace else workloads.END_TO_END)}
    print("stamp " + json.dumps(record["stamp"], sort_keys=True))
    for f in record["figures"]:
        gated = f" {f['slot']} {f['ms']:.6g} ms," if f["slot"] else ""
        print(f"{f['name']} {f['value']:.6g} {f['unit']} "
              f"({gated} {f['samples']} samples)")
    for name, value in record["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"error_rate {failed / max(attempted, 1):.6g} "
          f"({failed} failed of {attempted} attempted)")
    for reason in record["reasons"]:
        print(f"FAILED {reason}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in record["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # a terminated run still stops the processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
