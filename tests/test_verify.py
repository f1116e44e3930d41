import json
import math
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rzlab import potentials, semigroup, verify
from rzlab.grid import GridSpec


def small_cfg(**kw):
    base = dict(d=1, n=16, R=4.0, trials=12, theorem_trials=12, seed=77)
    base.update(kw)
    return verify.RunConfig(**base)


def test_trial_family_counts_and_meanzero():
    g = GridSpec(2, 16, 4.0)
    rng = verify.rng_for(1, "X")
    fam = verify.trial_family(g, rng, 20, mean_zero=True)
    assert fam.shape == (20, *g.shape)
    for v in fam:
        assert abs(v.mean()) <= 1e-12
        assert np.linalg.norm(v) == pytest.approx(1.0)


def test_nonneg_trials_are_nonneg():
    g = GridSpec(2, 16, 4.0)
    rng = verify.rng_for(2, "Y")
    for v in verify.nonneg_trials(g, rng, 5):
        assert v.min() >= 0.0


def test_bandlimited_spectrum_is_limited():
    g = GridSpec(1, 32, 4.0)
    (v,) = verify.trial_family(g, verify.rng_for(3, "Z"), 1, structured=False)
    F = np.fft.fft(v)
    k = np.abs(np.fft.fftfreq(g.n) * g.n)
    assert np.max(np.abs(F[k > g.n // 4])) <= 1e-10


def per_field_draws(g, rng, count, mean_zero):
    """The reference recipe: one standard_normal, fftn/ifftn pair and norm per field."""
    k = np.abs(np.fft.fftfreq(g.n) * g.n)
    mask = np.ones(g.shape, dtype=bool)
    for a in range(g.d):
        shape = [1] * g.d
        shape[a] = g.n
        mask &= k.reshape(shape) <= g.n // 4
    fields = []
    for _ in range(count):
        F = np.fft.fftn(rng.standard_normal(g.shape))
        F[~mask] = 0.0
        if mean_zero:
            F[(0,) * g.d] = 0.0
        v = np.fft.ifftn(F).real
        fields.append(v / np.linalg.norm(v))
    return np.array(fields).reshape(count, *g.shape)


def per_field_nonneg(g, rng, count):
    fields = []
    for v in per_field_draws(g, rng, count, mean_zero=False):
        v = v - v.min()
        v += 0.05 * v.max()
        fields.append(v / np.abs(v).max())
    return np.array(fields).reshape(count, *g.shape)


DRAWS = {  # the draw under test, then its per-field reference
    "mean_zero": (lambda g, rng, k: verify.trial_family(g, rng, k, True, structured=False),
                  lambda g, rng, k: per_field_draws(g, rng, k, True)),
    "with_mean": (lambda g, rng, k: verify.trial_family(g, rng, k, False, structured=False),
                  lambda g, rng, k: per_field_draws(g, rng, k, False)),
    "nonneg": (verify.nonneg_trials, per_field_nonneg),
}


@pytest.mark.parametrize("kind", DRAWS)
@pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 16)])
def test_trial_draws_equal_the_per_field_recipe_bit_for_bit(d, n, kind):
    g = GridSpec(d, n, 4.0)
    draw, reference = DRAWS[kind]
    block = verify.TRIAL_BLOCK_ELEMENTS // g.num_points  # fields per draw
    for count in (0, 1, block - 1, block, block + 1, 100):
        rng, ref_rng = verify.rng_for(count, "DRAW"), verify.rng_for(count, "DRAW")
        got, want = draw(g, rng, count), reference(g, ref_rng, count)
        assert got.shape == (count, *g.shape)
        assert np.array_equal(got, want), count
        assert np.array_equal(rng.standard_normal(3), ref_rng.standard_normal(3)), count


def test_structured_trials_follow_the_draws():
    g = GridSpec(2, 16, 4.0)
    fam = verify.trial_family(g, verify.rng_for(1, "X"), 20)
    assert np.array_equal(fam[:12], per_field_draws(g, verify.rng_for(1, "X"), 12, True))
    assert np.array_equal(fam[12:], verify.structured_fields(g, True))


def test_parse_potential_forms():
    assert verify.parse_potential("zero").tag == "zero"
    assert verify.parse_potential("const:3.5").c == 3.5
    assert verify.parse_potential("ce1:0.3").eps == 0.3
    assert verify.parse_potential("CE2:5").p == 5.0
    with pytest.raises(ValueError):
        verify.parse_potential("banana")


def test_runconfig_json_roundtrip():
    cfg = small_cfg()
    again = verify.RunConfig.from_dict(json.loads(cfg.to_json()))
    assert again == cfg
    with pytest.raises(ValueError, match="unknown config"):
        verify.RunConfig.from_dict({"nonsense": 1})


def test_unknown_check_and_suite():
    with pytest.raises(ValueError, match="unknown check"):
        verify.run_check("NOPE")
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("NOPE")


def test_interp_bound_endpoints():
    assert verify._interp_bound(2.0) == 1.0
    assert verify._interp_bound(1.0) == 2.0


def test_check_reports_are_deterministic():
    cfg = small_cfg()
    a = verify.run_check("L2_CONTRACT", cfg)
    b = verify.run_check("L2_CONTRACT", cfg)
    assert a.to_dict(include_runtime=False) == b.to_dict(include_runtime=False)


def test_run_check_sets_runtime(monkeypatch):
    real = verify.CHECKS["COMPOSITION"]

    def slow(cfg):
        time.sleep(0.05)
        return real(cfg)

    monkeypatch.setitem(verify.CHECKS, "COMPOSITION", slow)
    assert verify.run_check("COMPOSITION", small_cfg()).runtime_s >= 0.05


def test_interp_check_bound_at_p2():
    cfg = small_cfg(p_list=(2.0,))
    rep = verify.run_check("INTERP", cfg)
    # worst pair at p = 2 must carry bound 1; p = 1 is always included with bound 2
    assert rep.bound_value in (1.0, 2.0)
    assert rep.passed()


def test_green_mass_check_small():
    rep = verify.run_check("GREEN_MASS", small_cfg())
    assert rep.passed()
    assert rep.measured["const_equality_dev"] <= 1e-10


def test_domination_check_small():
    rep = verify.run_check("DOMINATION", small_cfg(d=2))
    assert rep.passed()
    assert rep.measured_value <= 1e-8


CATALOG_NOTES = {
    "DOMINATION": ["harmonic", "ce1(0.25)"],
    "GREEN_MASS": ["const(2)", "50 uniform(0, 5) samples"],
    "L2_CONTRACT": ["zero", "const(2)", "harmonic", "ce1(0.25)", "ce2(4)", "ce3"],
    "L1_BOUND": ["zero", "const(2)", "harmonic", "ce1(0.25)", "ce2(4)", "ce3"],
    "W_KERNEL": ["const(2)", "harmonic", "ce1(0.25)", "ce2(4)", "ce3"],
    "INTERP": ["zero", "const(2)", "harmonic", "ce1(0.25)", "ce2(4)", "ce3"],
}


@pytest.mark.parametrize("check_id", sorted(CATALOG_NOTES))
def test_catalog_checks_name_the_potentials_they_ran(check_id):
    # these checks ignore cfg.potential; the note says what ran instead
    cfg = small_cfg(d=2, n=8, potential="ce3")
    rep = verify.run_check(check_id, cfg)
    assert rep.config["potential"] == "ce3"
    assert rep.config["catalog"] == CATALOG_NOTES[check_id]
    if check_id != "GREEN_MASS":  # the others report per catalog label
        labels = {next(lbl for lbl in rep.config["catalog"] if k.startswith(lbl))
                  for k in rep.measured}
        assert labels == set(rep.config["catalog"])


def _pairwise_envelope_reference(t, n, R, region_fraction=0.6):
    """The spot check with explicit separations of every point pair."""
    grid = GridSpec(3, n, R)
    V = potentials.discretize_potential(potentials.ce2(4.0), grid)
    op = semigroup.dense_schrodinger(V)
    kt = semigroup.matrix_function(op, lambda lam: np.exp(-t * lam)) / grid.cell_volume

    def h_free(tt, dist2):
        return (4.0 * math.pi * tt) ** (-grid.d / 2.0) * np.exp(-dist2 / (4.0 * tt))

    pts = grid.points()
    delta = pts[:, None, :] - pts[None, :, :]
    delta = (delta + grid.R) % (2.0 * grid.R) - grid.R
    region = np.max(np.abs(delta), axis=-1) <= region_fraction * grid.R
    dist2 = (delta**2).sum(axis=-1)
    k = kt[region]
    ht = h_free(t, dist2)[region]
    best_c, best_ct = 0.0, t
    for mult in (1.0, 1.25, 1.5, 2.0, 3.0):
        c = min(1.0, float((k / h_free(mult * t, dist2)[region]).min()))
        if c > best_c:
            best_c, best_ct = c, mult * t
    return {
        "upper_excess_local": float(np.max((k - ht) / ht)),
        "fitted_c": best_c,
        "fitted_ct_over_t": best_ct / t,
        "kernel_min_in_region": float(k.min()),
    }


@pytest.mark.parametrize("n,R", [(6, 1.5), (8, 2.5)])
def test_gaussian_envelope_by_offset_equals_pairwise_reference(n, R):
    # h is a binary fraction on these grids, so every pairwise separation is
    # exact and the per-offset values must agree to the last bit
    got = verify.gaussian_envelope_spotcheck(t=0.25, n=n, R=R)
    assert got == _pairwise_envelope_reference(0.25, n, R)


def test_gaussian_envelope_reads_every_column_block(monkeypatch):
    # the 125 orbit columns of the 512 (ce2 is even) in 18 blocks of 7, the last one partial
    want = _pairwise_envelope_reference(0.25, 8, 2.5)
    monkeypatch.setattr(semigroup, "COLUMN_BLOCK", 7)
    got = verify.gaussian_envelope_spotcheck(t=0.25, n=8, R=2.5)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == pytest.approx(want[key], rel=1e-12, abs=0)


def test_suite_ordering_fixed():
    assert verify.SUITES["core"] == verify.CORE_CHECKS
    assert verify.SUITES["all"][: len(verify.CORE_CHECKS)] == verify.CORE_CHECKS


def test_report_contains_config_and_measured():
    rep = verify.run_check("COMPOSITION", small_cfg(n=32))
    raw = rep.to_dict()
    assert raw["config"]["n"] == 32
    assert "rel_frobenius_err" in raw["measured"]
    assert raw["verdict"] == "pass"


def test_composition_reads_its_matrices_in_column_blocks():
    # Holding the N x N matrices took about 48 MiB here; blocks of
    # semigroup.COLUMN_BLOCK unit fields take about 12 MiB.
    cfg = verify.RunConfig(d=2, n=32)
    grid = cfg.grid()
    semigroup.dense_schrodinger(potentials.discretize_potential(potentials.harmonic(), grid))
    tracemalloc.start()
    try:
        rep = verify.run_check("COMPOSITION", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "pass" and rep.measured_value <= 1e-10
    assert peak < 16 * 2**20


def test_core_reports_do_not_depend_on_concurrent_callers(monkeypatch):
    # Two callers on a cold dense cache race for the same operators.
    def cold_cache():
        limit = semigroup._DENSE_CACHE.limit
        monkeypatch.setattr(semigroup, "_DENSE_CACHE", semigroup.SingleFlightCache(limit))

    cfg = verify.RunConfig()
    cold_cache()
    with ThreadPoolExecutor(max_workers=2) as ex:
        two = list(ex.map(lambda cid: verify.run_check(cid, cfg), verify.CORE_CHECKS))
    cold_cache()
    one = verify.run_suite("core", cfg)
    assert [r.check_id for r in two] == list(verify.CORE_CHECKS)
    assert [r.to_dict(include_runtime=False) for r in two] == [
        r.to_dict(include_runtime=False) for r in one
    ]


def test_runconfig_validation_messages():
    with pytest.raises(ValueError, match="config trials must be >= 1"):
        verify.RunConfig(trials=0)
    with pytest.raises(ValueError, match="config n must be int, got '16'"):
        verify.RunConfig.from_dict({"n": "16"})
    with pytest.raises(ValueError, match="config R must be float, got True"):
        verify.RunConfig(R=True)
    with pytest.raises(ValueError, match="n must be an even integer"):
        verify.RunConfig(n=5)
    with pytest.raises(ValueError, match="unknown potential"):
        verify.RunConfig(potential="foo")
    with pytest.raises(ValueError, match=r"unknown config keys: \['jobs'\]"):
        verify.RunConfig.from_dict({"jobs": 2})
    assert verify.RunConfig(R=4).R == 4  # an int is accepted where a float is expected


POSITIVE_FLOATS = st.floats(1e-9, 1e3) | st.integers(1, 1000)

VALID_CONFIGS = st.builds(
    verify.RunConfig,
    d=st.integers(1, 6),
    n=st.integers(2, 64).map(lambda k: 2 * k),
    R=POSITIVE_FLOATS,
    potential=st.sampled_from(["zero", "const:2", "const:0.5", "harmonic", "ce1:0.25",
                               "ce2:4", "ce3"]),
    p_list=st.lists(st.floats(1.0, 1e3) | st.integers(1, 10), min_size=1, max_size=4).map(tuple),
    seed=st.integers(0, 2**63),
    trials=st.integers(1, 10**6),
    theorem_trials=st.integers(1, 10**6),
    quad_tol=POSITIVE_FLOATS,
    tau0=POSITIVE_FLOATS,
    strang_tau=POSITIVE_FLOATS,
    fk_paths=st.integers(1, 10**9),
    fk_slices=st.integers(1, 10**4),
    out_dir=st.text(),
)

NUMERIC_FIELDS = ("d", "n", "R", "seed", "trials", "theorem_trials", "quad_tol", "tau0",
                  "strang_tau", "fk_paths", "fk_slices")
BAD_SETTINGS = st.one_of(
    st.tuples(st.sampled_from([f.name for f in fields(verify.RunConfig)]),
              st.sampled_from([None, True, b"16"])),
    st.tuples(st.sampled_from(NUMERIC_FIELDS), st.just("16")),
    st.tuples(st.sampled_from(["d", "n", "seed", "trials", "fk_paths"]), st.floats(1.0, 64.0)),
    st.tuples(st.just("d"), st.integers(max_value=0)),
    st.tuples(st.just("n"), st.integers(-8, 200).filter(lambda n: n < 4 or n % 2)),
    st.tuples(st.just("R"), st.floats(max_value=0.0) | st.just(math.inf)),
    st.tuples(st.just("seed"), st.integers(max_value=-1)),
    st.tuples(st.sampled_from(["trials", "theorem_trials", "fk_paths", "fk_slices"]),
              st.integers(max_value=0)),
    st.tuples(st.sampled_from(["quad_tol", "tau0", "strang_tau"]),
              st.floats(max_value=0.0) | st.just(math.nan)),
    st.tuples(st.just("p_list"), st.just([])),
    st.tuples(st.just("p_list"),
              st.lists(st.floats(max_value=1.0, exclude_max=True) | st.just(math.nan),
                       min_size=1, max_size=3)),
    st.tuples(st.just("potential"), st.sampled_from(["foo", "", "ce1:2", "const:-1", "ce2:1"])),
)


@settings(max_examples=50, deadline=None)
@given(cfg=VALID_CONFIGS)
def test_runconfig_json_roundtrip_property(cfg):
    assert verify.RunConfig.from_dict(json.loads(cfg.to_json())) == cfg


@settings(max_examples=100, deadline=None)
@given(cfg=VALID_CONFIGS, bad=BAD_SETTINGS)
def test_runconfig_rejects_out_of_range_property(cfg, bad):
    name, value = bad
    raw = dict(json.loads(cfg.to_json()), **{name: value})
    with pytest.raises(ValueError):
        verify.RunConfig.from_dict(raw)
