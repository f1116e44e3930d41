import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rzlab import grid
from rzlab.grid import (
    Field,
    GridSpec,
    lp_norm,
    lp_norms,
    lp_ratios,
    nested_lp_norms,
    read_field,
    weak_l1,
    write_field,
)


@pytest.mark.parametrize("n", [12, 20, 24])
@pytest.mark.parametrize("R", [2.5, 4.0])
def test_axis_mirror_points_are_exact_negatives(n, R):
    ax = GridSpec(1, n, R).axis()
    assert ax[n // 2] == 0.0
    np.testing.assert_array_equal(ax[1:], -ax[1:][::-1])


def test_nearest_index_round_trip_on_a_non_dyadic_grid():
    g = GridSpec(2, 12, 2.5)
    got = [g.flat_index(g.nearest_index(x)) for x in g.points()]
    assert got == list(range(g.num_points))
    assert g.nearest_index([2.5, -2.5]) == (0, 0)  # the point R is the point -R
    # coordinates on axis 0, any number of points after it: one index array per axis
    np.testing.assert_array_equal(g.nearest_index(np.stack(g.mesh())), np.indices(g.shape))


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(0, 4, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 5, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 2, 1.0)
    with pytest.raises(ValueError):
        GridSpec(1, 4, -1.0)


def test_lp_norm_345():
    # h = 1 so the sums are bare: (3^2 + 4^2)^(1/2) = 5
    g = GridSpec(1, 4, 2.0)
    f = Field(g, [3.0, 4.0, 0.0, 0.0])
    assert lp_norm(f, 2) == pytest.approx(5.0, rel=1e-14)
    assert lp_norm(f, 1) == pytest.approx(7.0, rel=1e-14)
    region = np.array([True, False, False, False])
    assert lp_norm(f, 2, region) == pytest.approx(3.0, rel=1e-14)


def test_lp_norm_with_predicate_region():
    g = GridSpec(1, 4, 2.0)
    f = Field(g, [3.0, 4.0, 1.0, 1.0])
    # a predicate of the point coordinates is a mask of the mesh: the first cell (x = -2)
    (x,) = g.mesh()
    assert lp_norm(f, 2, x < -1.5) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="mask shape"):
        lp_norm(f, 2, lambda x: x[0] < -1.5)


def test_lp_norm_empty_region_warns():
    g = GridSpec(1, 4, 2.0)
    f = Field(g, [1.0, 2.0, 3.0, 4.0])
    with pytest.warns(UserWarning, match="empty region"):
        assert lp_norm(f, 1, np.zeros(4, dtype=bool)) == 0.0


def test_weak_l1_examples():
    g = GridSpec(1, 4, 2.0)  # h = 1
    f = Field(g, [3.0, 1.0, 0.0, 0.0])
    assert weak_l1(f) == pytest.approx(3.0)
    assert weak_l1(Field(g, np.zeros(4))) == 0.0
    assert weak_l1(Field(g, [2.0, 2.0, 2.0, 2.0])) == pytest.approx(8.0)


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(-1e3, 1e3, allow_nan=False),
    p=st.floats(1.0, 4.0),
    seed=st.integers(0, 2**31),
)
def test_lp_norm_homogeneous(alpha, p, seed):
    g = GridSpec(2, 8, 1.5)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(g.shape)
    base = lp_norm(Field(g, v), p)
    scaled = lp_norm(Field(g, alpha * v), p)
    assert scaled == pytest.approx(abs(alpha) * base, rel=1e-12, abs=1e-12)
    # one formula, bit for bit: a pairwise sum times h^d, then a Python-float root
    assert base == float((np.abs(v) ** p).sum() * g.cell_volume) ** (1.0 / p)
    assert lp_norms(np.stack([v, alpha * v]), g, p).tolist() == [base, scaled]


@pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 4)])
def test_lp_ratios_reject_a_zero_denominator_field(d, n):
    g = GridSpec(d, n, 1.5)
    v = np.random.default_rng(d).standard_normal((2, *g.shape))
    np.testing.assert_array_equal(lp_ratios(v, v, g, 1.5), [1.0, 1.0])
    den = v.copy()
    den[1] = 0.0
    with pytest.raises(ValueError, match="zero input field"):
        lp_ratios(v, den, g, 1.5)
    with pytest.raises(ValueError, match="p must be"):
        lp_norms(v, g, 0.5)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_weak_l1_below_l1(seed):
    g = GridSpec(1, 16, 2.0)
    rng = np.random.default_rng(seed)
    f = Field(g, rng.standard_normal(g.shape))
    assert weak_l1(f) <= lp_norm(f, 1) * (1 + 1e-15)


@st.composite
def rzf1_fields(draw):
    g = GridSpec(
        draw(st.integers(1, 3)),
        2 * draw(st.integers(2, 5)),
        draw(st.floats(0.0, 1e300, exclude_min=True)),
    )
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return Field(g, draw(arrays(np.float64, g.shape, elements=finite)))


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(f=rzf1_fields())
def test_rzf1_roundtrip_bit_exact(f, tmp_path):
    path = tmp_path / "f.rzf"
    write_field(f, path)
    f2 = read_field(path)
    assert f2.spec == f.spec
    assert f2.values.tobytes() == f.values.tobytes()
    write_field(f2, tmp_path / "f2.rzf")
    assert path.read_bytes() == (tmp_path / "f2.rzf").read_bytes()


def test_rzf1_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.rzf"
    path.write_bytes(b"NOPE" + b"\0" * 32)
    with pytest.raises(ValueError, match="not an RZF1"):
        read_field(path)


def test_rzf1_rejects_truncated(tmp_path):
    g = GridSpec(1, 4, 1.0)
    f = Field(g, [1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "f.rzf"
    write_field(f, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload"):
        read_field(path)


def test_field_shape_validation():
    g = GridSpec(2, 4, 1.0)
    with pytest.raises(ValueError, match="samples"):
        Field(g, np.zeros(7))
    with pytest.raises(ValueError, match="non-finite"):
        Field(g, np.full(g.shape, np.nan))


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(1, 2),
    n=st.sampled_from([4, 6, 10, 16]),
    p=st.floats(1.0, 8.0),
    cuts=st.integers(1, 6),
    block_points=st.integers(1, 64),
    empty=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_nested_lp_norms_match_masked_lp_norm(d, n, p, cuts, block_points, empty, seed):
    g = GridSpec(d, n, 1.5)
    rng = np.random.default_rng(seed)
    cutoffs = np.sort(rng.uniform(0.0, 1.0, cuts))[::-1]
    if empty:
        cutoffs[0] = 2.0  # above every rho: region 0 is empty
    rho = rng.uniform(0.0, 1.0, g.shape)
    # samples exactly on a cutoff lie outside its region (strict >)
    on_cut = rng.random(g.shape) < 0.3
    rho[on_cut] = rng.choice(cutoffs, on_cut.sum())
    keep = rng.random(g.shape) < 0.8  # the block leaves the other samples out
    f = Field(g, rng.standard_normal(g.shape))

    with warnings.catch_warnings(record=True) as ref_warn:
        warnings.simplefilter("always")
        expected = [lp_norm(f, p, (rho > c) & keep) for c in cutoffs]
    with mock.patch.object(grid, "_BLOCK_POINTS", block_points), \
            warnings.catch_warnings(record=True) as got_warn:
        warnings.simplefilter("always")
        got = nested_lp_norms(
            g, p, cutoffs,
            lambda rows: (rho[rows][keep[rows]], np.abs(f.values[rows][keep[rows]]) ** p),
        )
    assert got == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert bool(ref_warn) == bool(got_warn)
    assert all("empty region" in str(w.message) for w in got_warn)
    if empty:
        assert got[0] == 0.0 and got_warn


def test_nested_lp_norms_guards():
    g = GridSpec(1, 4, 2.0)

    def rows(s):
        return np.arange(4.0)[s], np.ones(4)[s]

    with pytest.raises(ValueError, match="decreasing"):
        nested_lp_norms(g, 2.0, [0.5, 1.0], rows)
    with pytest.raises(ValueError, match="p must be"):
        nested_lp_norms(g, 0.5, [1.0, 0.5], rows)
    # h = 1: rho = 0, 1, 2, 3 against cutoffs 2, 1 keeps 3 and then 2, 3
    np.testing.assert_allclose(nested_lp_norms(g, 1.0, [2.0, 1.0], rows), [1.0, 2.0])
