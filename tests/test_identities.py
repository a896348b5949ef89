import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degbern import families, identities
from degbern.core import LambdaPoly, XPoly, clear_caches
from degbern.expansion import _f_stirling_sum, expand
from degbern.families import bernoulli_poly, euler_poly, genocchi_poly
from degbern.identities import (
    DEFAULT_BOUNDS,
    closed_form_coeffs,
    identity_ids,
    verify,
    verify_all,
)
from degbern.umbral import umbral_compose
from helpers import member_ex_g_coeffs, record_grows


def test_identity_ids_complete():
    assert identity_ids() == (
        "ex_a",
        "ex_a_polyid",
        "ex_b",
        "ex_b_classical",
        "ex_c",
        "ex_c_classical",
        "ex_d",
        "ex_d_classical",
        "ex_e",
        "ex_e_classical",
        "ex_f",
        "ex_f_classical",
        "ex_g",
        "ex_g_iop",
        "fpz",
        "miki",
        "miki_poly",
    )


def test_each_identity_states_exactly_one_of_rhs_and_closed_form():
    for identity_id, entry in identities._IDENTITIES.items():
        assert (entry.rhs is None) != (entry.closed_form is None), identity_id


def test_miki_case():
    case = verify("miki", n=4)
    assert case.passed
    assert case.params == (("n", 4),)


def test_fpz_case():
    assert verify("fpz", n=2).passed


def test_polynomial_identity_case():
    assert verify("ex_a_polyid", n=3).passed


def test_ex_g_iop_case():
    assert verify("ex_g_iop", n=4, r=2, a=3).passed


def test_ex_g_full_order_range():
    for n in range(3, 6):
        for r in range(1, n + 1):
            assert verify("ex_g", n=n, r=r).passed


def _ex_g_oracle(n, r):
    """ex_g's closed form from two other routes: the member composition for k < r,
    and for k >= r the default f-route on the left side itself."""
    return member_ex_g_coeffs(n, r) + _f_stirling_sum(identities._product_sum(genocchi_poly, n), r)


def test_ex_g_closed_form_matches_the_member_composition():
    for n in range(3, 25):
        for r in range(1, n + 1):
            assert closed_form_coeffs("ex_g", n=n, r=r) == _ex_g_oracle(n, r), (n, r)


def test_ex_g_closed_form_at_the_degree_limit_matches_the_member_composition():
    try:
        assert closed_form_coeffs("ex_g", n=64, r=64) == _ex_g_oracle(64, 64)
    finally:
        clear_caches()  # the oracle's members: orders 1..64 to degree 125


def test_a_cold_ex_g_closed_form_reads_numbers_and_builds_no_member(monkeypatch):
    grown = record_grows(monkeypatch)
    closed_form_coeffs("ex_g", n=64, r=64)
    assert {("bernoulli_r", s) for s in range(2, 65)} <= set(grown)
    assert families._member.cache_info().currsize == 0  # not even the Genocchi products of the left side


_CLASSICAL = {
    identity_id: {"m": 3, "n": 5} if "m" in identities._IDENTITIES[identity_id].minima else {"n": 9}
    for identity_id in identity_ids()
    if identity_id.endswith("_classical") or identity_id == "miki_poly"
}


@pytest.mark.parametrize("identity_id", _CLASSICAL)
def test_a_cold_classical_right_side_reads_numbers_and_builds_no_member(monkeypatch, identity_id):
    # the Bernoulli sum is one Appell sum on the Bernoulli numbers; the left side still reads members
    grown = record_grows(monkeypatch)
    params = _CLASSICAL[identity_id]
    rhs = identities._IDENTITIES[identity_id].stated(identity_id, params)
    assert ("bernoulli_r", 1) in grown
    assert families._member.cache_info().currsize == 0
    assert rhs == verify(identity_id, params).lhs


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=40),
        st.fractions(max_denominator=10**6) | st.just(Fraction(0)),
        max_size=8,
    )
)
def test_bernoulli_sum_is_the_composition_with_the_bernoulli_polynomials(terms):
    # any weights, zero ones and the empty sum included, against the members composed one by one
    q = XPoly([terms.get(j, 0) for j in range(max(terms, default=-1) + 1)])
    assert identities._bernoulli_sum(terms) == umbral_compose(q, bernoulli_poly)


def test_unknown_identity():
    with pytest.raises(ValueError, match="unknown identity"):
        verify("nope", n=2)


def test_out_of_range_parameters():
    with pytest.raises(ValueError, match="n >= 2"):
        verify("miki", n=1)
    with pytest.raises(ValueError, match="n >= r"):
        verify("ex_g", n=4, r=5)
    with pytest.raises(ValueError, match="n >= 3"):
        verify("ex_d", n=2)


def test_a_case_past_the_degree_limit_raises_at_once():
    start = time.perf_counter()
    for call in (lambda: verify("ex_b", n=65), lambda: closed_form_coeffs("ex_g", n=10**6, r=1)):
        with pytest.raises(ValueError, match="n must be between 0 and 64 \\(DEGBERN_MAX_DEGREE\\)"):
            call()
    assert time.perf_counter() - start < 1


def test_verify_all_checks_its_bounds_before_any_case(monkeypatch):
    ran = []
    monkeypatch.setattr(identities, "verify", lambda identity_id, params, **kw: ran.append(params))
    tracemalloc.start()
    try:
        for ids, bounds in ((["ex_a"], {"n_max": 65}), (["ex_g"], {"n_max": 6, "r_max": 10**6})):
            with pytest.raises(ValueError, match="_max must be between 0 and 64 \\(DEGBERN_MAX_DEGREE\\)"):
                verify_all(dict.fromkeys(ids, bounds), ids=ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ran == [] and peak < 10**6  # no case ran, and no range of 10^6 values was built


def test_wrong_parameter_names():
    with pytest.raises(ValueError, match="parameters"):
        verify("miki", m=4)
    with pytest.raises(ValueError, match="missing"):
        verify("ex_e", m=2)


def test_perturbed_case_reports_offending_monomial():
    case = verify("miki", n=3, perturb=True)
    assert not case.passed
    assert case.offending_term() == "(-1)"
    clean = verify("miki", n=3)
    assert clean.offending_term() is None


def test_verify_all_small_sweep():
    bounds = {identity_id: {"n_max": 3, "r_max": 2, "a_max": 1} for identity_id in identity_ids()}
    cases = verify_all(bounds)
    assert cases and all(c.passed for c in cases)
    ids_seen = [c.id for c in cases]
    assert ids_seen == sorted(ids_seen)


def test_verify_all_zero_bounds_empty():
    assert verify_all({"miki": {"n_max": 0}}, ids=["miki"]) == []


def test_verify_all_rejects_a_sweep_past_the_work_of_the_degree_limit(monkeypatch):
    # about 2000 ex_g cases, and 23509 of every identity, at the default limit 64:
    # rejected before any case runs
    sweeps = [(["ex_g"], {"n_max": 64, "r_max": 64}), (identity_ids(), {"n_max": 64, "r_max": 64})]
    for ids, bounds in sweeps:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="too big for the degree limit 64"):
            verify_all(dict.fromkeys(ids, bounds), ids=ids)
        assert time.perf_counter() - start < 5
    # the rule follows the limit: ex_g's default sweep sums (n + r)^3 to 5985,
    # past 4 * 6^4 and within 4 * 8^4
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "6")
    with pytest.raises(ValueError, match="a sweep of 15 cases is too big for the degree limit 6"):
        verify_all(ids=["ex_g"])
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", "8")
    assert len(verify_all(ids=["ex_g"])) == 15


def test_verify_all_perturb_self_test():
    small = {"n_max": 4, "r_max": 2, "a_max": 1}
    cases = verify_all(dict.fromkeys(identity_ids(), small), perturb=True)
    assert {c.id for c in cases} == set(identity_ids())
    assert all(not c.passed for c in cases)
    assert all(not c.discrepancy.is_zero for c in cases)


@pytest.mark.parametrize("identity_id", identity_ids())
def test_stated_side_reaches_the_comparison(monkeypatch, identity_id):
    entry = identities._IDENTITIES[identity_id]
    if entry.rhs is not None:
        off = {"rhs": lambda **params: entry.rhs(**params) + XPoly.one()}
    else:

        def off_closed_form(**params):
            a0, *rest = entry.closed_form(**params)
            return [a0 + LambdaPoly.one(), *rest]

        off = {"closed_form": off_closed_form}
    monkeypatch.setitem(identities._IDENTITIES, identity_id, replace(entry, **off))
    smallest = dict(entry.minima)
    assert verify(identity_id, smallest).passed is False
    monkeypatch.undo()
    assert verify(identity_id, smallest).passed


def test_twins_share_one_left_side_and_each_checks_its_own_right_side(monkeypatch):
    pair = ("ex_e", "ex_e_classical")
    first, second = (verify(identity_id, m=3, n=4) for identity_id in pair)
    assert first.lhs is second.lhs and first.passed and second.passed
    # a perturbed right side fails its own twin only: the shared left side is never changed
    for bad in pair:
        assert [verify(identity_id, m=3, n=4, perturb=identity_id == bad).passed for identity_id in pair] == [
            identity_id != bad for identity_id in pair
        ]
    # a wrong Bernoulli polynomial reaches both twins
    clear_caches()
    monkeypatch.setattr(identities, "bernoulli_poly", lambda n: bernoulli_poly(n) + XPoly.one())
    assert [verify(identity_id, m=3, n=4).passed for identity_id in pair] == [False, False]


def test_default_bounds_cover_required_ranges():
    assert DEFAULT_BOUNDS["miki"]["n_max"] >= 8
    assert DEFAULT_BOUNDS["ex_d"]["n_max"] >= 10
    assert DEFAULT_BOUNDS["ex_e"]["n_max"] >= 10
    assert DEFAULT_BOUNDS["ex_g_iop"] == {"n_max": 6, "r_max": 3, "a_max": 3}


def test_default_sweep_case_counts():
    counts = Counter(case.id for case in verify_all())
    assert counts == {
        **dict.fromkeys(("ex_a", "ex_a_polyid", "ex_d", "ex_d_classical"), 8),
        **dict.fromkeys(("ex_b", "ex_c", "ex_c_classical", "fpz", "miki", "miki_poly"), 7),
        "ex_b_classical": 9,
        **dict.fromkeys(("ex_e", "ex_e_classical", "ex_f", "ex_f_classical"), 45),
        "ex_g": 15,
        "ex_g_iop": 84,
    }
    assert sum(counts.values()) == 362


# -- closed forms versus the expansion machinery -------------------------------


def _product_chain(family, n):
    """sum_k P_k P_{n-k} / (k(n-k)), one product and one sum per k, no symmetry."""
    p = XPoly.zero()
    for k in range(1, n):
        p = p + family(k) * family(n - k) * Fraction(1, k * (n - k))
    return p


@pytest.mark.parametrize("family", [bernoulli_poly, euler_poly, genocchi_poly], ids=lambda f: f.__name__)
def test_product_sum_matches_the_chain_of_products(family):
    # odd n pairs every k with n - k; even n adds the midpoint k = n/2 once
    for n in (1, 2, 3, 4, 7, 10, 15, 16):
        assert identities._product_sum(family, n) == _product_chain(family, n), n


def test_closed_forms_match_expansion_order1():
    for case in verify_all(ids=["ex_a", "ex_b", "ex_c", "ex_d", "ex_e", "ex_f"]):
        stated = closed_form_coeffs(case.id, **dict(case.params))
        e = expand(case.lhs)
        assert len(stated) == e.degree + 1
        assert list(e.coeffs) == stated, case.param_str()


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=16),
        st.fractions(min_value=-5, max_value=5, max_denominator=12),
        min_size=1,
        max_size=6,
    ).filter(lambda terms: terms[max(terms)] != 0),
    st.integers(min_value=1, max_value=16),
)
def test_degenerate_form_matches_expansion_of_any_bernoulli_sum(terms, r):
    # weights and orders beyond the corpus' own: the order-r map against the expansion routes
    stated = identities._degenerate_form(terms, r)
    e = expand(identities._bernoulli_sum(terms), r)
    assert len(stated) == max(r, e.degree + 1)
    assert stated[: e.degree + 1] == list(e.coeffs)
    assert all(c.is_zero for c in stated[e.degree + 1 :])


# The default sweep, then cases past DEFAULT_BOUNDS, among them r = n - 1, r = n and a taller n.
@pytest.mark.parametrize(
    "n_r",
    [None, (12, 5), (12, 11), (12, 12), (16, 4)],
    ids=lambda n_r: "default-bounds" if n_r is None else "n{}-r{}".format(*n_r),
)
def test_closed_form_matches_expansion_higher_order(n_r):
    if n_r is None:
        cases = verify_all(ids=["ex_g"])
        assert len(cases) == 15
        sweep = [dict(case.params) for case in cases]
    else:
        sweep = [dict(zip("nr", n_r))]
    for params in sweep:
        stated = closed_form_coeffs("ex_g", **params)
        e = expand(_product_chain(genocchi_poly, params["n"]), params["r"])
        assert len(stated) == max(params["r"], params["n"] - 1)
        assert stated[: e.degree + 1] == list(e.coeffs), params
        # entries past the degree (present when r - 1 > n - 2) must vanish
        assert all(c.is_zero for c in stated[e.degree + 1 :])


def test_closed_form_unknown_id():
    with pytest.raises(ValueError, match="closed-form"):
        closed_form_coeffs("miki", n=4)
