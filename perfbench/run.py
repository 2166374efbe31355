"""Benchmark of the ``skewgp fit`` pipeline: fit, predict and artifacts.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Each job runs in a fresh process (``job.py``) that calls the
public API in the order ``skewgp fit`` uses and times each step from
outside; the job then checks its outputs against an independent dense
oracle.  Jobs repeat until the next one would end after ``--seconds``
(at least one), and set-up alone is measured in further fresh processes;
timings are medians.  With ``--trace 1`` one untraced and one traced job
run instead, and the traced job reports per-layer metrics plus the tracing
overhead.

The program runs with its default thread settings; none are set here.
The last line of stdout is the JSON result; the exit code is 1 when any job
failed or a correctness check did not hold.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
JOB_TIMEOUT_S = 170

# end-to-end metrics: name -> unit; medians over the run's jobs
TIMED = {"fit_s": "s", "predict_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
# deterministic for one seed, so taken from the first job
ACCURACY = {"train_nlml": "nats", "forecast_mae": "target", "forecast_nlpd": "nats/point"}


def _spawn(workload: str, csv: Path, out: Path, *flags: str) -> dict:
    cmd = [sys.executable, str(BENCH / "job.py"), "--workload", workload,
           "--input", str(csv), "--out", str(out)]
    t_launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-launch", repr(t_launch), *flags],
                              capture_output=True, text=True, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"job exceeded {JOB_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": [f"job exited {proc.returncode} without a result:\n"
                             + proc.stderr[-2000:]]}
    if proc.returncode != 0:
        result.setdefault("problems", []).append(f"job exited {proc.returncode}")
    return result


def _blas() -> str:
    import numpy as np
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas'].get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def _git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy
    return {
        "blas": _blas(),
        **{var: os.environ.get(var, "unset (library default)")
           for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
    }


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "skewgp" / "__init__.py").is_file():
        print(f"no skewgp sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS, write_input
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    csv = write_input(args.workload, args.seed, work)

    def job(i, *flags):
        return _spawn(args.workload, csv, work / f"job{i}", *flags)

    jobs = []
    if args.trace:
        jobs = [job(0), job(1, "--trace")]
    else:
        start = time.monotonic()
        while True:
            jobs.append(job(len(jobs)))
            elapsed = time.monotonic() - start
            # a failed job would fail again: the same input, the same program
            if jobs[-1].get("problems") or elapsed + elapsed / len(jobs) > args.seconds:
                break
    probes = [] if args.trace else [job("setup", "--setup-only")
                                    for _ in range(SETUP_PROBES)]

    failed = 0
    for r in jobs + probes:
        for p in r.get("problems", []):
            print(f"# problem: {p}")
        failed += bool(r.get("problems")) or "setup_s" not in r
    attempted = len(jobs) + len(probes)
    ok = [r for r in jobs if not r.get("problems")]

    print("# env " + json.dumps(environment()))
    metrics = {}
    if args.trace and len(ok) == 2:
        metrics = dict(ok[1]["layers"])
        metrics["trace.overhead_s"] = _metric(ok[1]["job_s"] - ok[0]["job_s"], "s")
        if ok[1]["absent"]:
            print("# absent hooks: " + ", ".join(ok[1]["absent"]))
    elif not args.trace and ok:
        setups = [r["setup_s"] for r in jobs + probes if "setup_s" in r]
        metrics["setup_s"] = _metric(statistics.median(setups), "s")
        for name, unit in TIMED.items():
            metrics[name] = _metric(statistics.median(r[name] for r in ok), unit)
        for name, unit in ACCURACY.items():
            metrics[name] = _metric(ok[0][name], unit)
        print(f"# {len(ok)} job(s), {len(setups)} set-up samples; timings are medians")
        print(f"# train_nlml on normalized targets: {ok[0]['train_nlml_normalized']!r} nats")
        print(f"# oracle max errors: {json.dumps(ok[0]['oracle_err'])}")
    print(f"# failed_frac: {failed / attempted!r} ratio ({failed} of {attempted} runs)")
    for name, m in metrics.items():
        print(f"{args.workload:12s} {name:28s} {m['value']:>16.6g} {m['unit']}")
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
