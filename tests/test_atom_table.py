"""Every worst-case functional of a family reads one atom table.

Each functional is checked against a reference that keeps the per-measure
loop it replaced: the same decisions (argmax, annuli, membership verdict,
quasi-continuity status and witness, Erlang bound), values within 1e-14 of
the scale of the sums, and exactly equal values wherever every measure has
fewer than 8 atoms in play. Each measure's sum is then added term by term in
the order the loop added it, as numpy's ``sum`` adds fewer than 8 terms; from
8 terms on numpy sums in blocks, so the two can differ in the last bits.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special

from glevy import (
    DiscreteLevyMeasure,
    InvalidInputError,
    LevyTriple,
    Region,
    TestFunction,
    UncertaintySet,
    apply_g,
    erlang_bound_check,
    mean_of_jump_part,
    membership_lpb,
    pushforward_set,
    qc_criterion,
    sup_integral,
    tightness_profile,
    uniform_integrability_profile,
    uncertainty_set_from_config,
    v_capacity,
    v_norm,
    validate,
)
from glevy.errors import _evaluate
from glevy.regions import Box
from glevy.uncertainty import _atom_table, _merge_atoms

REL = 1e-14
EXACT_BELOW = 8  # atoms in play per measure under which sums agree exactly

PHIS = {
    "smooth": lambda z: float(np.sin(3.0 * np.sum(z)) + 0.5 * np.sum(np.square(z))),
    "signed": lambda z: float(np.sum(z) ** 3 - 0.7),
    "step": lambda z: float(np.sum(z) > 0.4) * 2.5,
    "tiny": lambda z: 1e-9 * float(np.prod(z)),
}


# -- the per-measure loops the table replaced ----------------------------------


def ref_capacity(ms, region):
    return [float(m.weights[m.mask_in(region)].sum()) for m in ms]


def ref_integrals(ms, phi, region):
    vals = []
    for m in ms:
        mask = m.mask_in(region)
        total = 0.0
        for v, w in zip(_evaluate(phi, m.atoms[mask], "integrand"), m.weights[mask]):
            total += v * w
        vals.append(total)
    return vals


def ref_validate(uset, q, p):
    with np.errstate(over="ignore", invalid="ignore"):
        sizes, small, large = [], 0.0, 0.0
        for t in uset:
            m = t.measure
            jump = float((m.weights * np.linalg.norm(m.atoms, axis=1)).sum()) if m.n_atoms else 0.0
            sizes.append(jump + float(np.linalg.norm(t.drift)) + float(np.trace(t.cov_root @ t.cov_root.T)))
            if m.n_atoms == 0:
                continue
            r = np.linalg.norm(m.atoms, axis=1)
            s = r < 1.0
            small = max(small, float((m.weights[s] * r[s] ** q).sum()))
            large = max(large, float((m.weights[~s] * r[~s] ** p).sum()))
    return max(sizes), small, large


def ref_generator(uset, f, g0, h0):
    best = -math.inf
    for t, val in zip(uset, ref_integrals(uset.measures, f, None)):
        val += float(t.drift @ g0)
        val += 0.5 * float(np.trace(h0 @ (t.cov_root @ t.cov_root.T)))
        best = max(best, val)
    return best


def ref_erlang_bound(uset, region_a, region_b, k, c0, c1):
    bound, horizon = 0.0, c1
    for t in uset:
        m = t.measure
        mass_a = float(m.weights[m.mask_in(region_a)].sum())
        mass_ab = float(m.weights[m.mask_in(region_a) & m.mask_in(region_b)].sum())
        scale = 1.0 / mass_a
        erlang = float(special.gammainc(k, c1 / scale) - special.gammainc(k, c0 / scale))
        bound = max(bound, (mass_ab / mass_a) * erlang)
        if not math.isfinite(c1):
            quantile = float(special.gammaincinv(k, 1.0 - 1e-8) * scale)
            horizon = max(horizon if math.isfinite(horizon) else 0.0, quantile)
    return bound, horizon


def _abs(f, m):
    return np.abs(_evaluate(f, m.atoms, "f"))


def ref_v_norm(f, region, ms, p):
    best = 0.0
    for m in ms:
        mask = m.mask_in(region)
        best = max(best, float(np.sum((_abs(f, m)[mask] ** p) * m.weights[mask])))
    return best ** (1.0 / p)


def ref_tightness(f, ms, p, eps_seq):
    per_measure, radii_all = [], set()
    for m in ms:
        vals = _abs(f, m) ** p
        r = np.linalg.norm(m.atoms, axis=1) if m.n_atoms else np.empty(0)
        keep = vals * m.weights > 0.0
        r, contrib = r[keep], (vals * m.weights)[keep]
        order = np.argsort(r)
        per_measure.append((r[order], contrib[order]))
        radii_all.update(r.tolist())
    radii = sorted(radii_all)

    def sup_tail(lo_r, hi_r):
        worst = 0.0
        for r, c in per_measure:
            outside = np.ones(r.shape[0], dtype=bool) if lo_r is None else (r < lo_r) | (r > hi_r)
            worst = max(worst, float(c[outside].sum()))
        return worst

    hulls = []
    i, j = 0, len(radii) - 1
    while i <= j:
        hulls.append(((radii[i], radii[j]), sup_tail(radii[i], radii[j])))
        if i == j:
            break
        if sup_tail(radii[i + 1], radii[j]) <= sup_tail(radii[i], radii[j - 1]):
            i += 1
        else:
            j -= 1
    hulls.append((None, sup_tail(None, None)))
    return [(float(eps), *next(h for h in hulls[::-1] if h[1] < eps)) for eps in eps_seq]


def ref_ui(f, ms, p, ns):
    data = [(_abs(f, m) ** p, m.weights) for m in ms]
    return [(float(n), max(float(np.sum(v * w * (v >= n))) for v, w in data)) for n in ns]


def ref_qc(f, ms):
    closure = f.discontinuity.closure()
    masks = [m.mask_in(closure) for m in ms]
    cap = max(float(m.weights[mask].sum()) for m, mask in zip(ms, masks))
    if cap == 0.0:
        return "qc", 0.0, None, None
    mi = next(i for i, mask in enumerate(masks) if mask.any())
    return "not-qc", cap, ms[mi].atoms[int(np.argmax(masks[mi]))].tolist(), mi


# -- random families ---------------------------------------------------------------


@st.composite
def families(draw, max_atoms=10):
    """Measures over a shared pool of atoms in d = 1 or 2, atoms in random order, some empty."""
    d = draw(st.sampled_from([1, 2]))
    coord = st.integers(-8, 8).map(lambda k: k / 4.0)
    pool = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=10, unique=True))
    pool = [z for z in pool if any(z)] or [(1.0,) * d]  # atoms avoid the origin
    ms = []
    for _ in range(draw(st.integers(1, 5))):
        picks = draw(st.lists(st.sampled_from(range(len(pool))), max_size=min(max_atoms, len(pool)), unique=True))
        weights = draw(st.lists(st.floats(0.01, 3.0), min_size=len(picks), max_size=len(picks)))
        ms.append(DiscreteLevyMeasure(np.array([pool[i] for i in picks]).reshape(-1, d), np.array(weights)))
    return ms


@st.composite
def regions(draw, d):
    lo = draw(st.lists(st.floats(-2.5, 2.0), min_size=d, max_size=d))
    width = draw(st.lists(st.floats(0.0, 3.0), min_size=d, max_size=d))
    closed = draw(st.tuples(st.booleans(), st.booleans()))
    return Region(boxes=(Box(np.array(lo), np.array(lo) + np.array(width), *closed),))


@st.composite
def uncertainty_sets(draw, max_atoms=10):
    ms = draw(families(max_atoms))
    d = ms[0].dim
    entry = st.floats(-1.0, 1.0)
    triples = []
    for m in ms:
        drift = draw(st.lists(entry, min_size=d, max_size=d))
        cov_root = draw(st.lists(entry, min_size=d * d, max_size=d * d))
        triples.append(LevyTriple(m, np.array(drift), np.array(cov_root).reshape(d, d)))
    return UncertaintySet(tuple(triples))


def _in_play(ms, region=None):
    return max(int(m.mask_in(region).sum()) for m in ms)


def assert_agree(new, ref, scale, exact):
    if exact:
        assert new == ref
    else:
        assert abs(new - ref) <= REL * scale


def assert_same_sup(new, ref_vals, scale, exact):
    """The new supremum is the reference's, and its argmax attains the reference maximum."""
    value, idx = new
    best = int(np.argmax(ref_vals))
    assert_agree(value, ref_vals[best], scale, exact)
    if exact:
        assert idx == best
    else:
        assert abs(ref_vals[idx] - ref_vals[best]) <= REL * scale


# -- the measure functionals ---------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), max_atoms=st.sampled_from([2, 5, 10]))
def test_capacity_and_sup_integral_match_the_measure_loop(data, max_atoms):
    ms = data.draw(families(max_atoms))
    region = data.draw(regions(ms[0].dim))
    exact = _in_play(ms, region) < EXACT_BELOW
    caps = ref_capacity(ms, region)
    assert_same_sup(v_capacity(ms, region), caps, max(caps), exact)
    phi = PHIS[data.draw(st.sampled_from(sorted(PHIS)))]
    for r in (region, None):
        exact = _in_play(ms, r) < EXACT_BELOW
        scale = max(ref_integrals(ms, lambda z: abs(phi(z)), r))
        assert_same_sup(sup_integral(ms, phi, r), ref_integrals(ms, phi, r), scale, exact)


@settings(max_examples=150, deadline=None)
@given(uset=uncertainty_sets(), q=st.floats(0.05, 0.95), p=st.floats(1.05, 4.0))
def test_validate_matches_the_triple_loop(uset, q, p):
    exact = _in_play(uset.measures) < EXACT_BELOW
    report = validate(uset, q, p)
    got = (report.uniform_bound, report.small_jump_moment, report.large_jump_moment)
    for new, ref in zip(got, ref_validate(uset, q, p)):
        assert_agree(new, ref, ref, exact)  # every term is nonnegative, so the value is the scale


@settings(max_examples=150, deadline=None)
@given(uset=uncertainty_sets(), name=st.sampled_from(sorted(PHIS)))
def test_generator_matches_the_triple_loop(uset, name):
    d = uset.dim
    f = lambda z: 0.0 if not np.any(z) else PHIS[name](z)
    grad = lambda z: np.linspace(-1.0, 0.5, d)
    hess = lambda z: np.array([[1.0, 0.3], [0.3, -2.0]])[:d, :d]
    g0, h0 = np.linspace(-1.0, 0.5, d), np.array([[1.0, 0.3], [0.3, -2.0]])[:d, :d]
    ref = ref_generator(uset, f, g0, h0)
    scale = max(ref_integrals(uset.measures, lambda z: abs(f(z)), None)) + max(
        float(np.abs(t.drift) @ np.abs(g0)) + abs(float(np.trace(h0 @ (t.cov_root @ t.cov_root.T)))) for t in uset
    )
    assert_agree(apply_g(f, uset, grad=grad, hess=hess), ref, scale, _in_play(uset.measures) < EXACT_BELOW)


@settings(max_examples=150, deadline=None)
@given(ms=families())
def test_mean_of_jump_part_matches_the_measure_loop(ms):
    # the old first moments went through BLAS (fused multiply-adds), so they agree to rounding only
    means = np.array([m.weights @ m.atoms if m.n_atoms else np.zeros(m.dim) for m in ms])
    scale = max(float(m.weights @ np.abs(m.atoms).max(axis=1)) if m.n_atoms else 0.0 for m in ms)
    try:
        got = mean_of_jump_part(ms, 2.0)
    except Exception as e:  # a refusal must be the reference's too: no dominating measure
        assert ms[0].dim == 2 and "dominates" in str(e)
        return
    if ms[0].dim == 1:
        assert abs(got[0] - 2.0 * means.max()) <= 2.0 * REL * scale
    else:
        assert any(np.all(np.abs(got - 2.0 * row) <= 2.0 * REL * scale) for row in means)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), max_atoms=st.sampled_from([2, 5, 10]), k=st.integers(1, 3))
def test_erlang_bound_matches_the_measure_loop(data, max_atoms, k):
    ms = data.draw(families(max_atoms))
    region_b = data.draw(regions(ms[0].dim))
    uset = UncertaintySet.from_measures([m for m in ms if m.n_atoms] or [DiscreteLevyMeasure.delta([1.0] * ms[0].dim)])
    region_a = Region.full_space()
    window = data.draw(st.sampled_from([(0.0, 1.0), (0.25, 2.0), (0.5, math.inf)]))
    res = erlang_bound_check(uset, region_a, region_b, k, window, 2, 7)
    bound, horizon = ref_erlang_bound(uset, region_a, region_b, k, *window)
    exact = _in_play(uset.measures) < EXACT_BELOW
    assert_agree(res.analytic_bound, bound, bound, exact)
    assert_agree(res.horizon, horizon, horizon, exact)
    assert res.passes == (res.mc_capacity >= res.analytic_bound - 3.0 * res.std_error)


# -- the function-space diagnostics ----------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data(), max_atoms=st.sampled_from([2, 5, 10]), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]))
def test_fnspace_functionals_match_the_measure_loop(data, max_atoms, p):
    ms = data.draw(families(max_atoms))
    d = ms[0].dim
    region = data.draw(st.one_of(st.none(), regions(d)))
    f = PHIS[data.draw(st.sampled_from(sorted(PHIS)))]
    exact = _in_play(ms) < EXACT_BELOW
    scale = max(float(np.sum(_abs(f, m) ** p * m.weights)) for m in ms)

    exact_inside = _in_play(ms, region) < EXACT_BELOW
    ref_norm = ref_v_norm(f, region, ms, p)
    assert_agree(v_norm(f, region, ms, p), ref_norm, ref_norm, exact_inside)  # nonnegative terms

    eps = [0.5, 0.1, 0.01, 1e-4]
    for (e, annulus, tail), ref in zip(tightness_profile(f, ms, p, eps), ref_tightness(f, ms, p, eps)):
        assert_agree(tail, ref[2], scale, exact)
        if exact:
            assert (e, annulus) == ref[:2]

    ns = [0.0, 0.25, 1.0, 4.0]
    for (n, tail), (ref_n, ref_tail) in zip(uniform_integrability_profile(f, ms, p, ns), ref_ui(f, ms, p, ns)):
        assert n == ref_n
        assert_agree(tail, ref_tail, scale, exact)

    verdict = membership_lpb(f, region, ms, p)
    restricted = [m.restrict(region) for m in ms]
    ref_tight = ref_tightness(f, restricted, p, [10.0 ** (-k) for k in range(1, 7)])
    ref_tail = ref_ui(f, restricted, p, [2.0**k for k in range(0, 41, 4)])[-1][1]
    assert_agree(verdict.norm, ref_norm, ref_norm, exact_inside)
    assert verdict.member == (math.isfinite(ref_norm) and all(t < e for e, _, t in ref_tight) and ref_tail < 1e-8)
    if exact_inside:
        assert [tuple(e) for e in verdict.tightness] == ref_tight


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_qc_criterion_matches_the_measure_loop(data):
    ms = data.draw(families())
    f = TestFunction(PHIS["step"], discontinuity=data.draw(regions(ms[0].dim)))
    got = qc_criterion(f, ms)
    status, cap, witness, mi = ref_qc(f, ms)
    assert (got.status, got.witness_measure) == (status, mi)
    assert (None if got.witness_atom is None else got.witness_atom.tolist()) == witness
    assert_agree(got.capacity, cap, cap, _in_play(ms, f.discontinuity.closure()) < EXACT_BELOW)


def ref_pushforward(ms, phi, region):
    out = []
    for m in ms:
        r = m.restrict(region)
        pts = _evaluate(phi, r.atoms, "mark map").reshape(r.n_atoms, -1) if r.n_atoms else r.atoms
        keep = np.linalg.norm(pts, axis=1) > 1e-12
        out.append(_merge_atoms(pts[keep], r.weights[keep], 1e-12) if keep.any() else DiscreteLevyMeasure.empty(m.dim))
    return out


@settings(max_examples=100, deadline=None)
@given(data=st.data(), max_atoms=st.sampled_from([2, 5, 10]))
def test_pushforward_matches_the_measure_loop(data, max_atoms):
    ms = data.draw(families(max_atoms))
    region = data.draw(st.one_of(st.none(), regions(ms[0].dim)))
    mark = lambda z: np.round(np.abs(z) * 0.4)  # merges atoms and maps some to the origin
    for got, want in zip(pushforward_set(ms, mark, region), ref_pushforward(ms, mark, region), strict=True):
        assert got.atoms.tolist() == want.atoms.tolist()
        assert got.weights.tolist() == want.weights.tolist()  # the same atoms merged in the same order


def test_pushforward_to_a_lower_dimension_keeps_the_image_dimension():
    # the second measure has no atom in the box; its empty image is 1-D like the first's
    family = [DiscreteLevyMeasure.delta([1.0, 2.0]), DiscreteLevyMeasure.delta([3.0, 1.0])]
    box = Region(boxes=(Box(np.array([0.0, 0.0]), np.array([2.0, 3.0]), True, True),))
    images = pushforward_set(family, lambda z: z[0] + z[1], box)
    assert [m.dim for m in images] == [1, 1]
    assert v_capacity(images, Region.full_space()) == (1.0, 0)


# -- one table, one evaluation per distinct atom --------------------------------


def test_atom_table_is_sorted_and_deduplicated():
    a = DiscreteLevyMeasure(np.array([[2.0, 1.0], [-1.0, 3.0]]), np.array([0.5, 0.25]))
    b = DiscreteLevyMeasure(np.array([[-1.0, 3.0], [2.0, -1.0]]), np.array([1.0, 2.0]))
    table = _atom_table([a, DiscreteLevyMeasure.empty(2), b])
    assert table.atoms.tolist() == [[-1.0, 3.0], [2.0, -1.0], [2.0, 1.0]]
    # one entry per (measure, atom), measure by measure in each one's own atom order
    assert (table.row.tolist(), table.column.tolist()) == ([0, 0, 2, 2], [2, 0, 0, 1])
    assert table.weight.tolist() == [0.5, 0.25, 1.0, 2.0]
    inside = table.restrict(np.array([False, True, True]))
    assert inside.atoms.tolist() == [[2.0, -1.0], [2.0, 1.0]]
    assert (inside.row.tolist(), inside.column.tolist(), inside.weight.tolist()) == ([0, 2], [1, 0], [0.5, 2.0])
    assert table.row_sums([1.0, 10.0, math.inf]).tolist() == [math.inf, 0.0, 21.0]  # b never reads the inf


MIXED = [DiscreteLevyMeasure.delta(1.0), DiscreteLevyMeasure.delta([1.0, 2.0])]
FAMILY_FUNCTIONS = {
    "v_capacity": lambda fam: v_capacity(fam, Region.full_space()),
    "sup_integral": lambda fam: sup_integral(fam, lambda z: 1.0),
    "mean_of_jump_part": lambda fam: mean_of_jump_part(fam, 1.0),
    "v_norm": lambda fam: v_norm(lambda z: 1.0, None, fam, 1.0),
    "tightness_profile": lambda fam: tightness_profile(lambda z: 1.0, fam, 1.0, [0.1]),
    "uniform_integrability_profile": lambda fam: uniform_integrability_profile(lambda z: 1.0, fam, 1.0, [1.0]),
    "membership_lpb": lambda fam: membership_lpb(lambda z: 1.0, None, fam, 1.0),
    "qc_criterion": lambda fam: qc_criterion(TestFunction(lambda z: 1.0, Region.full_space()), fam),
    "pushforward_set": lambda fam: pushforward_set(fam, lambda z: z),
}


@pytest.mark.parametrize("name", list(FAMILY_FUNCTIONS))
def test_mixed_dimension_family_is_refused(name):
    with pytest.raises(InvalidInputError, match="mixed dimensions"):
        FAMILY_FUNCTIONS[name](MIXED)


def _counting(fn):
    def counted(z):
        counted.calls += 1
        return fn(z)

    counted.calls = 0
    return counted


CLI_FAMILY = {
    "family": {
        "rule": "scaled_point_mass",
        "fixed": {"location": 1.0},
        "params": {"intensity": {"min": 1.0, "max": 2.0, "count": 11}},
    }
}


def test_user_functions_are_called_once_per_distinct_atom():
    uset = uncertainty_set_from_config(CLI_FAMILY)  # 11 triples on the one atom 1.0
    calls = {}
    for name, run in {
        "sup_integral": lambda f: sup_integral(uset, f),
        "v_norm": lambda f: v_norm(f, None, uset, 1.0),
        "membership_lpb": lambda f: membership_lpb(f, None, uset, 1.0),
        "pushforward_set": lambda f: pushforward_set(uset, f),
        "apply_g": lambda f: apply_g(f, uset, grad=lambda z: 0.0, hess=lambda z: 0.0),
    }.items():
        f = _counting(lambda z: float(z))
        run(f)
        calls[name] = f.calls
    # apply_g also checks f(0) = 0
    assert calls == {"sup_integral": 1, "v_norm": 1, "membership_lpb": 1, "pushforward_set": 1, "apply_g": 2}


def test_an_infinite_moment_at_an_uncharged_atom_adds_zero_not_nan():
    # 3^2000 overflows; the measure at 0.5 does not charge 3, so its row reads 0 there
    uset = UncertaintySet.from_measures([DiscreteLevyMeasure.delta(3.0), DiscreteLevyMeasure.delta(0.5, 2.0)])
    report = validate(uset, 0.5, 2000.0)
    assert report.large_jump_moment == math.inf and not report.large_jump_ok
    assert report.small_jump_moment == 2.0 * 0.5**0.5 and report.small_jump_ok
    assert report.uniform_bound == 3.0
