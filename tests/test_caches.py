"""The cache registry: every cache of the package is one entry of it, with the
bound the ``core`` docstring states, and ``clear_caches()`` empties them all,
also while other threads read them."""

import re
import sys
import threading
from pathlib import Path

import degbern
from degbern import core, expansion, families, identities, umbral
from degbern.core import LambdaPoly, XPoly
from degbern.expansion import BasisExpansion, expand, reconstruct
from degbern.families import deg_bernoulli_order, harmonic, stirling2
from degbern.parser import max_degree_limit, parse_poly
from degbern.umbral import forward_diff

_MODULES = {"core": core, "expansion": expansion, "families": families, "identities": identities, "umbral": umbral}


def _stated_bounds() -> dict:
    """entry -> the bound the core docstring's table states for it, read off the
    table's rows: "module.name", then the bound, None or an int."""
    rows = re.findall(r"^    (\w+)\.(\w+) +(None|\d+)  ", core.__doc__, re.MULTILINE)
    bounds = {getattr(_MODULES[module], name): None if b == "None" else int(b) for module, name, b in rows}
    assert len(bounds) == len(rows) > 0, rows
    return bounds


def _member(n: int, r: int) -> XPoly:
    """beta_n^(r) rebuilt by reconstruct, which reads the numbers and the plan of degree n."""
    return reconstruct(BasisExpansion(r, n, (LambdaPoly.zero(),) * n + (LambdaPoly.one(),), ("unit",) * (n + 1)))


def test_every_cache_is_a_bounded_registry_entry_that_clear_caches_empties(monkeypatch):
    bound = {cache: cache.cache_info().maxsize for cache in core._CACHES}
    stated = _stated_bounds()
    assert len(core._CACHES) == len(stated) == 17 and bound == stated
    # fill each lru entry past its bound through its callers
    x = XPoly.x()
    for i in range(bound[stirling2] + 10):
        stirling2(i, 1)
    for i in range(bound[harmonic] + 10):
        harmonic(i + 1)
    for i in range(bound[families._member] + 10):
        deg_bernoulli_order(i % 9, i // 9)
    for n in range(1, bound[umbral._diff_plan] + 10):
        forward_diff(x**n, 1, 1)
    # that many (degree, order) shapes: each expand reads the one plan of its pass
    for i in range(bound[expansion._pass_plan] + 10):
        expand(x ** (i % 37 + 2), 1 + i // 37)
    # reconstruct keeps a number side per (kind, order, degree) and a T plan per
    # (degree, order): a member at every degree up to the limit, then member 3 at more orders
    limit = max_degree_limit()
    keys = [(n, 1) for n in range(limit + 1)] + [(3, r) for r in range(2, bound[families._number_side] - limit + 10)]
    assert len(keys) > bound[families._number_side]
    monkeypatch.setenv("DEGBERN_MAX_DEGREE", str(max(r for _, r in keys)))  # a family order is a size
    for n, r in keys:
        assert _member(n, r).degree == n
    # the identity corpus keeps its term lists and left sides per parameters, and
    # a product sum per family and n: products of x^k sum cheaply
    by_n = (identities._ex_b_terms, identities._ex_c_terms, identities._ex_d_terms)
    for n in range(2, max(bound[entry] for entry in by_n) + 12):
        for entry in by_n:
            entry(n)
    for n in range(bound[identities._product_sum] + 10):
        identities._product_sum(XPoly.monomial, n)
    by_mn = (identities._ex_e_terms, identities._ex_f_terms)
    pairs = [(m, n) for m in range(1, 40) for n in range(1, 40)]
    for m, n in pairs[: max(bound[entry] for entry in (identities._nielsen, *by_mn)) + 10]:
        identities._nielsen(XPoly.monomial, m, n)
        for entry in by_mn:
            entry(m, n)
    for cache in core._CACHES:
        info = cache.cache_info()
        assert info.currsize == info.maxsize if info.maxsize else info.currsize > 0, cache
    degbern.clear_caches()
    assert [cache.cache_info().currsize for cache in core._CACHES] == [0] * len(core._CACHES)


def test_no_module_but_core_applies_lru_cache():
    # a cache made with functools.lru_cache directly would bypass the registry
    src = Path(core.__file__).parent
    users = sorted(path.name for path in src.glob("*.py") if re.search(r"\blru_cache\b", path.read_text()))
    assert users == ["core.py"]


def test_clear_caches_while_threads_expand_and_reconstruct():
    # in each round eight threads expand and reconstruct polys of degrees 11..32,
    # from cold caches, while another thread empties every cache in a loop: each
    # result must be the serial one. The degrees differ, so a triangle or table
    # cleared in place under a reader would be regrown short by another thread
    polys = [parse_poly(f"{c}*x^{8 + 3 * c} - {c}/5*l*x^{5 + c} + x^3 - {c}") for c in range(1, 9)]

    def work(p):
        e = expand(p, 3)
        return e, reconstruct(e)

    expected = [work(p) for p in polys]
    assert all(back == p for p, (_, back) in zip(polys, expected))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            degbern.clear_caches()
            barrier = threading.Barrier(len(polys) + 1)
            done = threading.Event()
            results: list = [None] * len(polys)
            clears = []

            def worker(i: int) -> None:
                barrier.wait(timeout=30)
                results[i] = work(polys[i])

            def clearer() -> None:
                barrier.wait(timeout=30)
                while not done.is_set():
                    degbern.clear_caches()
                    clears.append(1)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(polys))]
            sweeper = threading.Thread(target=clearer)
            for t in [*threads, sweeper]:
                t.start()
            for t in threads:
                t.join(timeout=120)
            done.set()
            sweeper.join(timeout=30)
            assert not any(t.is_alive() for t in [*threads, sweeper])
            assert clears
            assert results == expected
    finally:
        sys.setswitchinterval(interval)
