"""The program keeps what the benchmark under ``perfbench/`` relies on, so a
refactor cannot break it unnoticed:

* every per-layer hook of the tracer names a program attribute that exists
  (resolved the way ``perfbench/tracer.py`` resolves them; no hook is
  installed), so no layer metric is dropped;
* every program name ``perfbench/job.py`` imports or reads off an imported
  ``skewgp`` module exists, and every ``OptConfig`` keyword it passes is a
  field, so a deletion the benchmark needs fails here and not in its run;
* the model record carries the keys ``perfbench/oracle.py`` reads, and the
  oracle's closed form rebuilds the program's Gram matrix from them.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _hook_targets():
    return [(modname, attr) for modname, attr, _, _ in _load("tracer").HOOKS]


def _job_program_uses():
    """``(module, attribute)`` for every ``skewgp`` name ``perfbench/job.py``
    imports or reads as ``module.attr``, and the ``OptConfig`` keywords it
    passes."""
    tree = ast.parse((PERFBENCH / "job.py").read_text())
    modules, uses, opt_keywords = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("skewgp"):
            for alias in node.names:
                uses.add((node.module, alias.name))
                if node.module == "skewgp":
                    modules[alias.asname or alias.name] = f"skewgp.{alias.name}"
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            uses.add((modules[node.value.id], node.attr))
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "OptConfig"):
            opt_keywords.update(k.arg for k in node.keywords)
    return sorted(uses), sorted(opt_keywords)


def test_job_reads_the_modules_it_imports():
    uses, opt_keywords = _job_program_uses()
    # the parse must see the pipeline, not come back empty
    assert {("skewgp.cli", "build_init"), ("skewgp.gp", "fit"),
            ("skewgp.rbcm", "rbcm_fit")} <= set(uses)
    assert "max_iters" in opt_keywords


@pytest.mark.parametrize("modname, attr", _job_program_uses()[0])
def test_job_program_name_resolves(modname, attr):
    module = importlib.import_module(modname)
    # ``from package import name`` also finds a submodule of that name
    assert hasattr(module, attr) or (hasattr(module, "__path__") and
                                     importlib.util.find_spec(f"{modname}.{attr}"))


@pytest.mark.parametrize("keyword", _job_program_uses()[1])
def test_job_opt_config_keyword_is_a_field(keyword):
    from skewgp.optimize import OptConfig

    assert keyword in {f.name for f in dataclasses.fields(OptConfig)}


@pytest.mark.parametrize("modname, attr", _hook_targets())
def test_hook_target_resolves(modname, attr):
    owner = importlib.import_module(modname)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_rbcm_pool_is_the_executor_the_tracer_replaces():
    rbcm = importlib.import_module("skewgp.rbcm")
    assert rbcm.ThreadPoolExecutor is ThreadPoolExecutor


@pytest.mark.parametrize("p", [1, 2])
def test_model_record_has_the_keys_the_oracle_reads(p):
    from skewgp import gp, kernels, spectral
    from skewgp.optimize import OptConfig

    rng = np.random.default_rng(4)
    X = rng.uniform(0.0, 6.0, (20, p))
    y = 2.0 + np.cos(X.sum(axis=1)) + 0.1 * rng.standard_normal(20)
    data = gp.Dataset(X, y)
    init = spectral.random_init(2, "slsm", float(np.var(y)), 2.0, seed=0, p=p)
    model = gp.fit(data, init, "slsm", OptConfig(max_iters=5))
    doc = json.loads(gp.model_to_json(model))
    assert doc["schema_version"] == 1
    scale_key = "sigma" if p == 1 else "sigma2"
    for comp in doc["components"]:
        assert list(comp) == ["w", "mu", scale_key, "gamma"]
        for key in ("mu", scale_key, "gamma"):
            if p == 1:
                assert isinstance(comp[key], float)
            else:
                assert isinstance(comp[key], list) and len(comp[key]) == p
    for key in ("noise_var", "jitter_used"):
        assert isinstance(doc[key], float)
    assert set(doc["normalization"]) >= {"y_mean", "y_std", "x_means", "x_stds"}

    oracle = _load("oracle")
    xn = oracle.normalize(doc, X)
    expected = kernels.gram(model.data.X, model.data.X, "slsm", model.params)
    np.testing.assert_allclose(oracle.slsm_gram(xn, xn, doc["components"]), expected,
                               rtol=0, atol=1e-12 * np.max(np.abs(expected)))


def test_eval_hook_sees_one_call_per_evaluation_per_group(monkeypatch):
    """``gp.evals`` and ``gp.evals_failed`` count calls of
    ``gp.nlml_value_and_grad``: above the Toeplitz crossover a fit makes one
    call per objective evaluation, and rBCM experts on one grid share it, on
    either side of the crossover; a failed Toeplitz call still reaches the
    hook and the optimizer sees inf."""
    from skewgp import gp, kernels, rbcm, toeplitz
    from skewgp.errors import NumericalError
    from skewgp.kernels import SlsmComponent, SlsmParams
    from skewgp.optimize import OptConfig, transform

    calls, failures = [], []
    evaluate = gp.nlml_value_and_grad

    def counting(data, tp, table):
        calls.append(table)
        try:
            return evaluate(data, tp, table)
        except Exception as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(gp, "nlml_value_and_grad", counting)
    X = np.arange(8 * toeplitz.MIN_N, dtype=float)
    data = gp.Dataset(X, np.sin(0.3 * X) + 0.1 * np.random.default_rng(5).standard_normal(X.size))
    init = SlsmParams((SlsmComponent(1.0, 0.3, 0.2, 0.0),), noise_var=0.1)

    model = gp.fit(data, init, "slsm", OptConfig(max_iters=3))
    assert model.opt_result.n_evals >= 4
    assert len(calls) == model.opt_result.n_evals
    assert all(t == kernels.Grid(X.size, 1.0) for t in calls)

    calls.clear()
    ens = rbcm.rbcm_fit(data, 8, "slsm", init, OptConfig(max_iters=3))
    assert len(calls) == ens.opt_result.n_evals
    assert all(t == kernels.Grid(toeplitz.MIN_N, 1.0) for t in calls)

    # below the crossover the experts share one dense lag table
    calls.clear()
    short = gp.Dataset(X[:8 * (toeplitz.MIN_N - 1)], data.y[:8 * (toeplitz.MIN_N - 1)])
    ens = rbcm.rbcm_fit(short, 8, "slsm", init, OptConfig(max_iters=3))
    assert len(calls) == ens.opt_result.n_evals
    assert all(t[1].shape == (toeplitz.MIN_N - 1,) * 2 for t in calls)

    calls.clear()
    monkeypatch.setattr(toeplitz, "levinson", lambda r: None)
    tp = transform(init, "slsm")
    f, g = gp.objective_or_inf([data], tp.x, tp.layout, kernels.Grid(X.size, 1.0))
    assert f == np.inf and not np.any(g)
    assert len(calls) == 1 and isinstance(failures[-1], NumericalError)


def test_multivariate_evaluation_calls_the_hooked_partials_once_per_component(monkeypatch):
    """``kernels.partials`` times the P > 1 gradient through the module
    attribute ``multi_component_partials``: one call per component and
    evaluation, each contracting that component's partials against M and
    taking its parameter row.  K comes from the row blocks before the
    Cholesky, outside the hook."""
    from skewgp import gp, kernels
    from skewgp.kernels import SlsmComponent, SlsmParams
    from skewgp.optimize import transform

    calls = []
    body = kernels.multi_component_partials

    def counting(x, M, row, kind):
        calls.append(row)
        assert M.shape == (x.shape[0],) * 2
        return body(x, M, row, kind)

    monkeypatch.setattr(kernels, "multi_component_partials", counting)
    rng = np.random.default_rng(7)
    X = rng.uniform(-2.0, 2.0, (40, 2))
    data = gp.Dataset(X, np.sin(X.sum(axis=1)))
    comps = tuple(SlsmComponent(1.0, (0.3 * q + 0.2, 0.5), (0.4, 0.6), (0.1, -0.2))
                  for q in range(3))
    params = SlsmParams(comps, noise_var=0.1)
    for kind in kernels.MIXTURE_KERNELS:
        calls.clear()
        gp.nlml_value_and_grad([data], transform(params, kind), kernels.lag_table(X, kind, params))
        assert np.allclose(calls, params.rows(kind), rtol=1e-12)


def test_predict_calls_the_hooked_gram_and_solve_once_per_factor(monkeypatch):
    """``gp.predict_self_s`` and ``rbcm.aggregate_s`` subtract the time of
    the ``kernels.gram`` and ``gp.solve_triangular`` hooks, so a batch
    predict must reach both: once for a model, once per rBCM expert."""
    from skewgp import gp, kernels, rbcm
    from skewgp.kernels import SlsmComponent, SlsmParams
    from skewgp.optimize import OptConfig

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    X = np.arange(60.0)
    data = gp.Dataset(X, np.sin(0.3 * X) + 0.1 * np.random.default_rng(6).standard_normal(60))
    init = SlsmParams((SlsmComponent(1.0, 0.3, 0.2, 0.0),), noise_var=0.1)
    model = gp.fit(data, init, "slsm", OptConfig(max_iters=2))
    ens = rbcm.rbcm_fit(data, 3, "slsm", init, OptConfig(max_iters=2))
    xq = np.arange(0.0, 80.0, 0.5)
    monkeypatch.setattr(kernels, "gram", counted("gram", kernels.gram))
    monkeypatch.setattr(gp, "solve_triangular", counted("solve", gp.solve_triangular))

    model.predict(xq)
    assert calls == ["gram", "solve"]
    calls.clear()
    ens.predict(xq)
    assert calls == ["gram", "solve"] * 3


@pytest.mark.parametrize("n", [96, "MIN_N"], ids=["dense", "toeplitz"])
def test_grid_evaluation_takes_the_value_from_the_hooked_partials(monkeypatch, n):
    """On a grid, dense or Toeplitz, one evaluation reaches the hooked
    ``slsm_component_partials`` once, for all Q components at once, which
    gives K as well as the gradient: no second value pass through
    ``slsm_component`` and no checked component built per evaluation."""
    from skewgp import gp, kernels, optimize, toeplitz
    from skewgp.kernels import SlsmComponent, SlsmParams
    from skewgp.optimize import transform

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("slsm_component", "slsm_component_partials", "SlsmComponent"):
        monkeypatch.setattr(kernels, name, counted(name, getattr(kernels, name)))
    monkeypatch.setattr(optimize, "SlsmComponent", kernels.SlsmComponent)
    X = np.arange(toeplitz.MIN_N if n == "MIN_N" else n, dtype=float)
    data = gp.Dataset(X, np.sin(0.3 * X))
    params = SlsmParams(tuple(SlsmComponent(1.0, 0.2 * q, 0.3, 0.1) for q in range(4)),
                        noise_var=0.1)
    (members, table), = gp.objective_groups([data], "slsm", params)
    assert isinstance(table, kernels.Grid) == (n == "MIN_N")
    gp.nlml_value_and_grad(members, transform(params, "slsm"), table)
    assert calls == ["slsm_component_partials"]
