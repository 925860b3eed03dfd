import numpy as np
import pytest

from spintomo.estimator import _XATOL, _brent, _coordinate_search


def recording(f, calls):
    def wrapped(x):
        calls.append(np.array(x, dtype=float))
        return f(x)

    return wrapped


def batched(f, calls, sizes=None):
    """``f`` of one point as the stack-of-points function ``_coordinate_search`` calls."""
    def wrapped(points):
        if sizes is not None:
            sizes.append(len(points))
        return [recording(f, calls)(x) for x in points]

    return wrapped


@pytest.mark.parametrize("centre", [0.3, 0.5, 0.99])
def test_brent_interior_minimum(centre):
    def g(t):
        return (t - centre) ** 2 + np.cos(3 * t) * 1e-3

    calls = []
    x, fx = _brent(recording(g, calls), 0.0, 1.0, 0.5, g(0.5))
    exact = centre
    for _ in range(20):  # g'(t) = 0 as a contraction
        exact = centre + 1.5e-3 * np.sin(3 * exact)
    assert abs(x - exact) < _XATOL
    assert fx == g(x) == min(g(c) for c in calls)
    assert all(0.0 <= c <= 1.0 for c in calls)
    assert len(calls) < 40


def test_brent_minimum_on_the_bound_returns_the_bound():
    calls = []
    f = recording(lambda t: -t, calls)
    x, fx = _brent(f, 0.25, 1.0, 1.0, -1.0)
    assert x == 1.0 and fx == -1.0
    assert all(0.25 <= c < 1.0 for c in calls)


def test_grid_finds_the_lower_of_two_basins():
    # a local minimum at 0.2 (value 0.05) and the global one at 0.8 (value 0)
    calls, sizes = [], []
    f = batched(lambda x: min((x[0] - 0.2) ** 2 + 0.05, 3 * (x[0] - 0.8) ** 2), calls, sizes)
    best = _coordinate_search(f, np.array([0.0]), np.array([1.0]))
    assert abs(best[0] - 0.8) < _XATOL
    assert all(0.0 <= c[0] <= 1.0 for c in calls)
    assert np.array_equal(np.concatenate(calls[:9]), np.linspace(0.0, 1.0, 9))
    # the grid is one call; Brent's points come one per call
    assert sizes[0] == 9 and set(sizes[1:]) == {1}


def test_coordinate_search_on_a_correlated_quadratic():
    target = np.array([0.31, -0.42])
    hessian = np.array([[2.0, 1.2], [1.2, 1.0]])

    def f(x):
        dx = np.asarray(x) - target
        return float(dx @ hessian @ dx)

    calls = []
    lows, highs = np.array([-1.0, -1.0]), np.array([1.0, 0.5])
    best = _coordinate_search(batched(f, calls), lows, highs)
    assert np.max(np.abs(best - target)) < 1e-5
    assert all(np.all(lows <= c) and np.all(c <= highs) for c in calls)
    again = _coordinate_search(batched(f, []), lows, highs)
    assert np.array_equal(best, again)
