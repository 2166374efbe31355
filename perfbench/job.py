"""One benchmark job in a fresh process: the ``skewgp fit`` pipeline, timed
from outside, then checked against the dense oracle.

    python3 perfbench/job.py --workload NAME --input CSV --out DIR
                             --t-launch T [--setup-only] [--trace]

``--t-launch`` is the parent's ``time.monotonic()`` just before it started
this process, so set-up time includes interpreter start-up and imports.
Prints one JSON object on stdout.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the program's fit seed stays at the command-line default, so the program
# receives nothing from the benchmark but the generated input
FIT_SEED = 0
KERNEL = "slsm"       # every workload fits the paper's kernel
# batch predict repeats: at least PREDICT_MIN, then until PREDICT_MIN_S
# seconds in total, at most PREDICT_MAX
PREDICT_MIN, PREDICT_MIN_S, PREDICT_MAX = 3, 1.0, 1000


def _since(t_launch: float) -> float:
    return time.monotonic() - t_launch


def _factor_nlml(part) -> float:
    """NLML on normalized targets from a model's or expert's stored factors."""
    y = part.data.y
    return (0.5 * float(y @ part.alpha) + float(sum(math.log(d) for d in part.chol_L.diagonal()))
            + 0.5 * y.shape[0] * math.log(2.0 * math.pi))


def _train_nlml(model):
    """(NLML in target units, NLML on normalized targets); rBCM sums over
    experts.  Target units keep the value positive and away from zero."""
    parts = getattr(model, "experts", None) or [model]
    total = sum(_factor_nlml(p) for p in parts)
    n = sum(p.data.y.shape[0] for p in parts)
    return total + n * math.log(model.normalization.y_std), total


def run_job(args, rec):
    t_launch = args.t_launch
    import numpy as np
    from skewgp import cli, gp, rbcm
    from skewgp.optimize import OptConfig

    import oracle
    import tracer
    from workloads import WORKLOADS, query_points

    missing = tracer.install(rec) if rec is not None else []
    data, info = cli.ingest_csv(args.input)
    setup_s = _since(t_launch)
    if args.setup_only:
        return {"setup_s": setup_s}

    wl = WORKLOADS[args.workload]
    train, test = cli.chronological_split(data, wl.n_train / data.n)
    cfg = OptConfig(max_iters=wl.max_iters, restarts=wl.restarts, seed=FIT_SEED)
    xq, held = query_points(wl.name, train.X, test.X)

    t0 = time.monotonic()
    init, _ = cli.build_init(train, info, KERNEL, wl.q, FIT_SEED)
    if wl.rbcm_m:
        model = rbcm.rbcm_fit(train, wl.rbcm_m, KERNEL, init, cfg)
    else:
        model = gp.fit(train, init, KERNEL, cfg)
    t1 = time.monotonic()
    pred = model.predict(xq, observation_noise=True)
    t2 = time.monotonic()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with rec.span("cli.write") if rec is not None else nullcontext():
        doc = rbcm.ensemble_to_dict(model) if wl.rbcm_m else gp.model_to_dict(model)
        (out / "model.json").write_text(json.dumps(doc, indent=2))
        cli._write_predictions(out / "predictions.csv", xq[:, 0], pred)
    job_s = _since(t_launch)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- outside the timed job: repeat the batch predict for a steadier
    # median; a traced job keeps the counts of the single pipeline pass ----
    predict_times = [t2 - t1]
    while rec is None and len(predict_times) < PREDICT_MAX and (
            len(predict_times) < PREDICT_MIN or sum(predict_times) < PREDICT_MIN_S):
        ta = time.monotonic()
        model.predict(xq, observation_noise=True)
        predict_times.append(time.monotonic() - ta)

    # ---- outside the timed region: accuracy and correctness ----
    doc = json.loads((out / "model.json").read_text())
    nlml, nlml_norm = _train_nlml(model)
    mean, var = pred.mean[held], pred.var[held]
    problems = []
    if not np.all(np.isfinite(pred.mean)):
        problems.append("non-finite predictive mean")
    if not (np.all(np.isfinite(pred.var)) and np.all(pred.var >= 0.0)):
        problems.append("non-finite or negative predictive variance")
    if not math.isfinite(nlml):
        problems.append("non-finite train NLML")
    with np.errstate(divide="ignore", invalid="ignore"):
        nlpd = float(np.mean(0.5 * np.log(2.0 * math.pi * var)
                             + 0.5 * (test.y - mean) ** 2 / var))
    oracle_err = {}
    if not problems:
        if wl.rbcm_m:
            experts = [(_factor_nlml(e), e.alpha) for e in model.experts]
            oracle_err = oracle.check_rbcm(doc, train.X, train.y, xq, pred.mean,
                                           pred.var, experts)
        else:
            oracle_err = oracle.check_gp(doc, train.X, train.y, xq, pred.mean,
                                         pred.var, nlml_norm)
        for key, err in oracle_err.items():
            if not err <= oracle.TOL:
                problems.append(f"oracle {key} error {err:.3e} > {oracle.TOL:g}")
    result = {
        "setup_s": setup_s,
        "fit_s": t1 - t0,
        "predict_s": statistics.median(predict_times),
        "job_s": job_s,
        "peak_rss_mb": peak_mb,
        "train_nlml": nlml,
        "train_nlml_normalized": nlml_norm,
        "forecast_mae": float(np.mean(np.abs(test.y - mean))),
        "forecast_nlpd": nlpd,
        "oracle_err": oracle_err,
        "problems": problems,
    }
    if rec is not None:
        result["layers"] = tracer.layer_metrics(rec, missing)
        result["absent"] = missing
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t-launch", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    rec = None
    if args.trace:
        import tracer
        rec = tracer.Recorder()
    try:
        result = run_job(args, rec)
    except Exception:
        # the run raised: report it as a failed run, not a crash of the bench
        result = {"problems": ["job raised:\n" + traceback.format_exc()]}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
