"""Benchmark entry point: run one workload once and print its metrics.

    python3 perfbench/run.py --workload toy_train --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/`
there and writes scratch files under `.perfbench_work/`. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics (from a separate traced pass in the same process) with
`--trace 1`. The line before it holds the full report: environment,
workload-specific figures and sample counts.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One thread: on a noisy 2-vCPU machine two threads doubled the run-to-run
# spread of the conv-heavy workloads and made 64x64 training slower.
BLAS_THREADS = 1


def _pin_blas_threads():
    """Fix the BLAS thread count; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "evrecon" / "__init__.py").is_file():
        print(f"error: no evrecon sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = harness.run(WORKLOADS[args.workload](), args.seed,
                                     args.seconds, bool(args.trace), workdir)
    except harness.TraceCoverageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    report["env"] = harness.environment(BLAS_THREADS)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
