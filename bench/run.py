"""Benchmark entry point.

    python3 bench/run.py --workload <tabulate|rational|oracle_sweep|cli>
                         --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` directory.  Prints the full result record
(environment, sample counts, failures) as one JSON line, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
record is also written to ``bench/out/``.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("tabulate", "rational", "oracle_sweep", "cli")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "hahnium" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no hahnium package under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    record = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (harness.out_dir() / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed",
                                                    "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
