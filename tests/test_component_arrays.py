"""The (Q, n) component pass of a P = 1 mixture on a grid against the
scalar reference bodies of ``conftest``: K and every partial bit for bit on
the dense grid path and on the Toeplitz path, the parameter rows read from
the optimizer's vector equal to ``untransform``'s components, and the
objective equal bit for bit to one built from ``untransform`` and the
reference bodies."""

import numpy as np
import pytest

import skewgp.gp as gp
import skewgp.kernels as kn
import skewgp.toeplitz as tz
from skewgp.errors import DataError, NumericalError
from skewgp.gp import Dataset
from skewgp.kernels import SlsmComponent, SlsmParams
from skewgp.optimize import OptConfig, minimize, transform, untransform

from conftest import random_params, ref_value_and_partials, training_table

MIXTURES = ("slsm", "sm", "lkp")
# a 96-point grid takes the dense path, a MIN_N-point grid the Toeplitz path
PATHS = {"dense": 96, "toeplitz": tz.MIN_N}


def _pow_differs(rng, lo, hi):
    """A draw in [lo, hi) whose square by C ``pow`` (``float ** 2``) is not
    its square by ``x * x`` (numpy's ``arr**2``)."""
    return next(float(v) for v in rng.uniform(lo, hi, 100_000) if v * v != float(v) ** 2)


def _draws(rng, count=12):
    """Random mixtures of 1 to 10 components; the first has a skew and a
    scale whose squares differ between ``pow`` and ``x * x``."""
    first = random_params(rng, q=3)
    odd = SlsmComponent(0.7, 0.9, _pow_differs(rng, 0.1, 2.0), _pow_differs(rng, -1.5, 1.5))
    yield first.with_components((odd,) + first.components[1:])
    for _ in range(count - 1):
        yield random_params(rng, q=int(rng.integers(1, 11)))


def _grid_lags(path):
    """The n lags the array pass sees on the given path."""
    n = PATHS[path]
    if path == "toeplitz":
        return kn.Grid(n, 1.0).lags()
    return training_table(np.arange(n, dtype=float), "slsm",
                          random_params(np.random.default_rng(0)))[0]


def test_a_draw_tells_pow_from_square(rng):
    """The first draw's scale and skew really separate the two squarings."""
    c = next(_draws(rng)).components[0]
    for v in (c.sigma[0], c.gamma[0]):
        assert np.square(np.array([v]))[0] != np.float_power(np.array([v]), 2)[0]
        assert np.float_power(np.array([v]), 2)[0] == v**2


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("kind", MIXTURES)
def test_array_pass_equals_the_scalar_reference(rng, kind, path):
    """K and every row of G equal the reference bodies' value and partials
    bit for bit, and K equals ``kernel_value``'s, which ``gram`` evaluates
    for predictions, for rows read from the optimizer's vector."""
    tau = _grid_lags(path)
    for params in _draws(rng):
        x, layout = transform(params, kind)
        rows, _ = layout.natural(x)
        ref = untransform(x, layout)
        K, G = kn.value_and_partials(tau, kind, rows)
        K_ref, partials = ref_value_and_partials(tau, kind, ref)
        assert np.array_equal(K, K_ref)
        assert np.array_equal(K, kn.kernel_value(tau, kind, ref))
        assert G.shape == (len(partials), tau.size) == (x.size - 1, tau.size)
        for g, g_ref in zip(G, partials):
            assert np.array_equal(g, g_ref)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("kind", MIXTURES)
def test_layout_rows_are_untransforms_components(rng, kind, p):
    """The (Q, 1 + k P) rows of ``ParamLayout.natural`` are a view of the
    natural values holding w, then P each of mu, sigma (and gamma for
    slsm), equal to ``untransform``'s components and their
    ``SlsmParams.rows``; the noise is last."""
    q = 4
    comps = tuple(SlsmComponent(float(rng.uniform(0.1, 3.0)), tuple(rng.uniform(0.1, 3.0, p)),
                                tuple(rng.uniform(0.1, 2.0, p)),
                                tuple(rng.uniform(-1.5, 1.5, p))) for _ in range(q))
    x, layout = transform(SlsmParams(comps, noise_var=0.2), kind)
    x = x + rng.normal(0.0, 0.3, x.size)
    rows, vals = layout.natural(x)
    k = 3 if kind == "slsm" else 2
    assert rows.shape == (q, 1 + k * p) and np.shares_memory(rows, vals)
    back = untransform(x, layout)
    assert vals[-1] == back.noise_var
    assert np.array_equal(back.rows(kind), rows)  # checked parameters enter as these rows
    for row, c in zip(rows, back.components):
        expected = [c.w, *c.mu, *c.sigma] + (list(c.gamma) if kind == "slsm" else [])
        assert row.tolist() == expected


def _reference_objective(monkeypatch, parts, x, layout, grid, path):
    """The objective on the given path with checked parameters from
    ``untransform`` and K and the partials from the reference bodies,
    through the same algebra."""
    params = untransform(x, layout)
    with monkeypatch.context() as m:
        m.setattr(kn, "value_and_partials", ref_value_and_partials)
        terms = gp._toeplitz_terms if path == "toeplitz" else gp._dense_terms
        f, grad = terms(parts, layout.kind, params, params.noise_var, grid)
    return f, np.array(grad) * np.where(layout.log_mask, np.exp(x), 1.0)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("kind", MIXTURES)
def test_objective_equals_the_reference_objective(monkeypatch, rng, kind, path):
    """At 20 random points the objective on a grid equals, bit for bit, the
    one built from ``untransform`` and the reference bodies."""
    X = np.arange(PATHS[path], dtype=float)
    data = Dataset(X, np.sin(0.3 * X) + 0.3 * rng.standard_normal(X.size))
    params = random_params(rng, q=5)
    (members, grid), = gp.objective_groups([data])
    assert grid == kn.Grid(X.size, 1.0) and (grid.n >= tz.MIN_N) == (path == "toeplitz")
    x0, layout = transform(params, kind)
    for _ in range(20):
        x = x0 + rng.normal(0.0, 0.5, x0.size)
        f, g = gp.nlml_value_and_grad(members, x, layout, grid)
        f_ref, g_ref = _reference_objective(monkeypatch, members, x, layout, grid, path)
        assert f == f_ref and np.array_equal(g, g_ref)


def test_half_dots_are_the_per_row_dots(rng):
    """The stacked gradient reading equals 0.5 * (g @ S) row by row, bit for
    bit, over shapes from one slot to many and lag counts past the dot
    kernel's unrolling."""
    for _ in range(300):
        rows, n = int(rng.integers(1, 60)), int(rng.integers(1, 2500))
        G = rng.standard_normal((rows, n)) * 10.0 ** rng.integers(-6, 6, (rows, 1))
        S = rng.standard_normal(n)
        assert np.array_equal(kn._half_dots(G, S), [0.5 * float(g @ S) for g in G])


def _assert_underflow_rejected(data, p):
    """A line-search point whose log scale of component 1 (dimension 0)
    underflows to sigma = 0 raises ``DataError``, which ``minimize`` reads
    as +inf: at the starting point it raises ``NumericalError``."""
    params = SlsmParams((SlsmComponent(1.0, (0.3,) * p, (0.2,) * p, (0.1,) * p),
                         SlsmComponent(0.5, (1.1,) * p, (0.4,) * p, (-0.2,) * p)),
                        noise_var=0.1)
    (members, grid), = gp.objective_groups([data])
    x, layout = transform(params, "slsm")
    x[1 * (1 + 3 * p) + 1 + p] = -800.0    # slot = row (1 + k P) + column: sigma_0 of row 1
    with pytest.raises(DataError):
        gp.nlml_value_and_grad(members, x, layout, grid)
    with pytest.raises(NumericalError, match="non-finite at the starting point"):
        minimize(lambda v: gp.nlml_value_and_grad(members, v, layout, grid), x, OptConfig())
    return grid


@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_scale_underflowing_to_zero_is_rejected_on_a_grid(path):
    """A scale underflowed to 0 must stay rejected on a grid (the optimizer
    sees inf), although the rows themselves would evaluate."""
    X = np.arange(PATHS[path], dtype=float)
    grid = _assert_underflow_rejected(Dataset(X, np.sin(0.3 * X)), 1)
    assert grid == kn.Grid(X.size, 1.0) and (grid.n >= tz.MIN_N) == (path == "toeplitz")


@pytest.mark.parametrize("p", [1, 2])
def test_a_scale_underflowing_to_zero_is_rejected_off_a_grid(p):
    """The same on scattered P = 1 inputs (slot 6: row 1, column 2,
    sigma[1]) and on P = 2 inputs (slot 10: row 1, column 3 of sigma[1, 0]),
    which are no grid."""
    rng = np.random.default_rng(3)
    X = np.sort(rng.uniform(0.0, 40.0, 40)) if p == 1 else rng.uniform(-2.0, 2.0, (40, 2))
    grid = _assert_underflow_rejected(Dataset(X, np.sin(0.3 * X.reshape(40, -1).sum(axis=1))), p)
    assert grid is None
