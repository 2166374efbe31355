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
from skewgp.errors import DataError
from skewgp.gp import Dataset
from skewgp.kernels import SlsmComponent, SlsmParams
from skewgp.optimize import TransformedParams, transform, untransform

from conftest import random_params, ref_natural_partials, ref_value_and_partials

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
    table = kn.lag_table(np.arange(n, dtype=float), "slsm", random_params(np.random.default_rng(0)))
    return table[0] if path == "dense" else kn.Grid(n, 1.0).lags()


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
        tp = transform(params, kind)
        rows, _ = tp.layout.natural(tp.x)
        ref = untransform(tp)
        K, G = kn.value_and_partials(tau, kind, rows)
        K_ref, partials = ref_value_and_partials(tau, kind, ref)
        assert np.array_equal(K, K_ref)
        assert np.array_equal(K, kn.kernel_value(tau, kind, ref))
        assert G.shape == (len(partials), tau.size) == (tp.x.size - 1, tau.size)
        for g, g_ref in zip(G, partials):
            assert np.array_equal(g, g_ref)


@pytest.mark.parametrize("kind", MIXTURES)
def test_scattered_partials_stream_the_reference_bit_for_bit(rng, kind):
    """Scattered lags stream one (n, n) partial per slot, each equal to the
    reference's bit for bit."""
    t = np.sort(rng.uniform(0.0, 30.0, 40))
    tau = t[:, None] - t[None, :]
    for params in _draws(rng, count=4):
        ours = list(kn.natural_partials(tau, kind, params.rows(kind)))
        ref = list(ref_natural_partials(tau, kind, params))
        assert len(ours) == len(ref)
        assert all(a.shape == tau.shape and np.array_equal(a, b) for a, b in zip(ours, ref))


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
    tp = transform(SlsmParams(comps, noise_var=0.2), kind)
    tp = TransformedParams(tp.x + rng.normal(0.0, 0.3, tp.x.size), tp.layout)
    rows, vals = tp.layout.natural(tp.x)
    k = 3 if kind == "slsm" else 2
    assert rows.shape == (q, 1 + k * p) and np.shares_memory(rows, vals)
    back = untransform(tp)
    assert vals[-1] == back.noise_var
    assert np.array_equal(back.rows(kind), rows)  # checked parameters enter as these rows
    for row, c in zip(rows, back.components):
        expected = [c.w, *c.mu, *c.sigma] + (list(c.gamma) if kind == "slsm" else [])
        assert row.tolist() == expected


def _reference_objective(monkeypatch, parts, tp, table):
    """The objective with checked parameters from ``untransform`` and K and
    the partials from the reference bodies, through the same algebra."""
    params = untransform(tp)
    with monkeypatch.context() as m:
        m.setattr(kn, "value_and_partials", ref_value_and_partials)
        terms = gp._toeplitz_terms if isinstance(table, kn.Grid) else gp._dense_terms
        f, grad = terms(parts, tp.layout.kind, params, params.noise_var, table)
    return f, np.array(grad) * np.where(tp.layout.log_mask, np.exp(tp.x), 1.0)


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("kind", MIXTURES)
def test_objective_equals_the_reference_objective(monkeypatch, rng, kind, path):
    """At 20 random points the objective on a grid equals, bit for bit, the
    one built from ``untransform`` and the reference bodies."""
    X = np.arange(PATHS[path], dtype=float)
    data = Dataset(X, np.sin(0.3 * X) + 0.3 * rng.standard_normal(X.size))
    params = random_params(rng, q=5)
    (members, table), = gp.objective_groups([data], kind, params)
    assert isinstance(table, kn.Grid) == (path == "toeplitz")
    tp0 = transform(params, kind)
    for _ in range(20):
        tp = TransformedParams(tp0.x + rng.normal(0.0, 0.5, tp0.x.size), tp0.layout)
        f, g = gp.nlml_value_and_grad(members, tp, table)
        f_ref, g_ref = _reference_objective(monkeypatch, members, tp, table)
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
    underflows to sigma = 0 raises ``DataError`` and reads ``(inf, 0)``."""
    params = SlsmParams((SlsmComponent(1.0, (0.3,) * p, (0.2,) * p, (0.1,) * p),
                         SlsmComponent(0.5, (1.1,) * p, (0.4,) * p, (-0.2,) * p)),
                        noise_var=0.1)
    (members, table), = gp.objective_groups([data], "slsm", params)
    tp = transform(params, "slsm")
    x = tp.x.copy()
    x[tp.layout.names.index("sigma[1]" if p == 1 else "sigma[1,0]")] = -800.0
    with pytest.raises(DataError):
        gp.nlml_value_and_grad(members, TransformedParams(x, tp.layout), table)
    f, g = gp.objective_or_inf(members, x, tp.layout, table)
    assert f == np.inf and not np.any(g)
    return table


@pytest.mark.parametrize("path", sorted(PATHS))
def test_a_scale_underflowing_to_zero_is_rejected_on_a_grid(path):
    """A scale underflowed to 0 must stay rejected on a grid (the optimizer
    sees inf), although the rows themselves would evaluate."""
    X = np.arange(PATHS[path], dtype=float)
    table = _assert_underflow_rejected(Dataset(X, np.sin(0.3 * X)), 1)
    assert isinstance(table, kn.Grid) == (path == "toeplitz")


@pytest.mark.parametrize("p", [1, 2])
def test_a_scale_underflowing_to_zero_is_rejected_off_a_grid(p):
    """The same on scattered P = 1 inputs (slot ``sigma[1]``) and on P = 2
    inputs (slot ``sigma[1,0]``)."""
    rng = np.random.default_rng(3)
    X = np.sort(rng.uniform(0.0, 40.0, 40)) if p == 1 else rng.uniform(-2.0, 2.0, (40, 2))
    table = _assert_underflow_rejected(Dataset(X, np.sin(0.3 * X.reshape(40, -1).sum(axis=1))), p)
    assert table is None if p == 2 else table[1] is None
