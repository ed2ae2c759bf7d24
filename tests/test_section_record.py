"""The per-separation record of section floats on the grid's moment table.

Every exp/ff entry and every per-order term read through the record must
be the value a cold computation gives, whatever was asked before it.
"""

from collections import Counter

import pytest

import isingcorr as ic
from isingcorr import cli
from isingcorr import fredholm as fredholm_module
from isingcorr import toeplitz as toeplitz_module
from isingcorr import verify as verify_module
from isingcorr.toeplitz import moment_table

POINTS = [
    ic.diagonal_from_alpha2(0.5), ic.diagonal_from_alpha2(0.9), ic.diagonal_from_alpha2(2.5),
    ic.direct(0.2, 0.5), ic.direct(0.2, 3.0), ic.direct(0.05, 5.0),
    ic.from_couplings(ic.Kind.ROW, 0.6, 0.5),
]
SEPARATIONS = list(range(1, 41)) + [64]
CASES = [(params, M) for params in POINTS for M in (64, 256)]
IDS = [f"{p.kind.value}-{p.alpha1:.3g}-{p.alpha2:.3g}-M{M}" for p, M in CASES]

#: call orders: the routes in turn, the orders n_max in turn, and whether
#: the per-order readers run before the correlations (on a cold table)
CALL_ORDERS = {
    "det-exp-ff": (("det", "exp", "ff"), (0, 1, 2, 3), False),
    "readers-then-ff-exp": (("ff", "exp"), (0, 1, 2, 3), True),
    "descending": (("exp", "ff"), (3, 2, 1, 0), False),
}


def _readers(params, grid, N, orders):
    """(name, call) for every per-order reader of the section at N."""
    calls = []
    for n in orders:
        calls.append((f"f_2n n={n}", lambda n=n: ic.f_2n(params, grid, N, n)))
        calls.append((f"f_from_F n={n}", lambda n=n: ic.f_from_F(params, grid, N, n)))
        if n == 0:
            if params.regime is ic.Regime.ABOVE:
                calls.append(("G_2n1 n=0", lambda: ic.G_2n1(params, grid, N, 0)))
                calls.append(("f_2n1 n=0", lambda: ic.f_2n1(params, grid, N, 0)))
            continue
        calls.append((f"F_2n n={n}", lambda n=n: ic.F_2n(params, grid, N, n)))
        if params.regime is ic.Regime.BELOW:
            calls.append((f"Ftilde_2n n={n}", lambda n=n: ic.Ftilde_2n(params, grid, N, n)))
            calls.append((f"phi_2n n={n}", lambda n=n: ic.phi_2n(params, grid, N, n)))
        else:
            calls.append((f"G_2n1 n={n}", lambda n=n: ic.G_2n1(params, grid, N, n)))
            calls.append((f"f_2n1 n={n}", lambda n=n: ic.f_2n1(params, grid, N, n)))
    return calls


def _run(params, grid, routes, orders, readers_first):
    """repr of every exp/ff entry and reader term, keyed by call, in one call order."""
    got = {}

    def read_all():
        for N in SEPARATIONS:
            for name, call in _readers(params, grid, N, orders):
                got[N, name] = repr(call())

    if readers_first:
        read_all()
    for n_max in orders:
        for route in routes:
            for N in SEPARATIONS:
                entry = ic.correlation(params, N, route, n_max, grid)
                if route != "det":
                    got[N, route, n_max] = repr(entry)
    if not readers_first:
        read_all()
    return got


@pytest.fixture(scope="module")
def cold():
    """Cold values per case, each call on emptied caches, computed on first use."""
    found = {}

    def values(params, M):
        if (params, M) not in found:
            grid = ic.make_grid(params, M)
            want = {}
            for N in SEPARATIONS:
                for n_max in (0, 1, 2, 3):
                    for route in ("exp", "ff"):
                        toeplitz_module.clear_cache()
                        want[N, route, n_max] = repr(ic.correlation(params, N, route, n_max, grid))
                for name, call in _readers(params, grid, N, (0, 1, 2, 3)):
                    toeplitz_module.clear_cache()
                    want[N, name] = repr(call())
            found[params, M] = want
        return found[params, M]

    return values


@pytest.mark.parametrize("call_order", CALL_ORDERS)
@pytest.mark.parametrize("params, M", CASES, ids=IDS)
def test_record_gives_the_cold_values(cold, params, M, call_order):
    """Value, est_error and every term of each entry and reader, byte for byte."""
    want = cold(params, M)
    toeplitz_module.clear_cache()
    routes, orders, readers_first = CALL_ORDERS[call_order]
    got = _run(params, ic.make_grid(params, M), routes, orders, readers_first)
    assert got.keys() == want.keys()
    wrong = [key for key in want if got[key] != want[key]]
    assert not wrong, (wrong[:5], [(got[k], want[k]) for k in wrong[:2]])


def _count_sections(monkeypatch):
    """Count build_kernel calls per params, from fredholm's section seam and from verify."""
    built = Counter()
    build = fredholm_module.build_kernel

    def counted(params, grid, N, *args, **kwargs):
        built[params] += 1
        return build(params, grid, N, *args, **kwargs)

    monkeypatch.setattr(fredholm_module, "build_kernel", counted)
    monkeypatch.setattr(verify_module, "build_kernel", counted)
    return built


@pytest.mark.parametrize("point", [["--diagonal", "--alpha2", "0.5"],
                                   ["--diagonal", "--alpha2", "2.5"],
                                   ["--direct", "0.2", "3.0"]])
def test_table_builds_one_section_per_separation(monkeypatch, capsys, point):
    """det, exp and ff over N = 1..16 build 16 sections; at --orders 0, none."""
    built = _count_sections(monkeypatch)
    toeplitz_module.clear_cache()
    argv = ["table", *point, "--N", "1..16", "--routes", "det,exp,ff"]
    assert cli.main(argv) == 0
    assert list(built.values()) == [16]
    built.clear()
    toeplitz_module.clear_cache()
    assert cli.main(argv + ["--orders", "0"]) == 0
    assert not built
    capsys.readouterr()


def test_orders_read_one_section(monkeypatch, below, below_grid, above, above_grid):
    """Lower orders, other routes and the per-order readers reuse the section
    built for the highest order; a higher order builds it once more.  The
    entry at N reads the section at N below T_c and at N + 1 above."""
    built = _count_sections(monkeypatch)
    toeplitz_module.clear_cache()
    for params, grid, section in ((below, below_grid, 5), (above, above_grid, 6)):
        for n_max in (2, 1, 0):
            for route in ("exp", "ff"):
                ic.correlation(params, 5, route, n_max, grid)
        ic.f_2n(params, grid, section, 2)
        ic.F_2n(params, grid, section, 1)
        assert built[params] == 1
        ic.correlation(params, 5, "ff", 3, grid)
        ic.correlation(params, 5, "exp", 3, grid)
        assert built[params] == 2


def test_record_holds_floats_only_and_clear_cache_empties_it(below, below_grid,
                                                             above, above_grid):
    toeplitz_module.clear_cache()
    for params, grid in ((below, below_grid), (above, above_grid)):
        for N in (1, 7):
            for route in ("exp", "ff"):
                ic.correlation(params, N, route, 3, grid)
        open_chain = ic.phi_2n if params is below else ic.G_2n1
        open_chain(params, grid, 7, 2)
        sections = moment_table(params, grid, 7).sections
        assert sections
        for sums, chains in sections.values():
            assert type(sums) is tuple and type(chains) is tuple
            assert all(type(v) is float for v in sums + chains), (sums, chains)
    toeplitz_module.clear_cache()
    for params, grid in ((below, below_grid), (above, above_grid)):
        assert moment_table(params, grid, 7).sections == {}


def test_returned_terms_do_not_alias_the_record(below, below_grid, above, above_grid):
    toeplitz_module.clear_cache()
    for params, grid in ((below, below_grid), (above, above_grid)):
        for route in ("exp", "ff"):
            first = ic.correlation(params, 3, route, 3, grid)
            want = repr(first)
            first.terms.reverse()
            first.terms[0] = first.terms[-1]
            first.terms.append(first.terms[0])
            assert repr(ic.correlation(params, 3, route, 3, grid)) == want


#: sections each suite builds at M = 128 on cold caches: lemma1 reads only
#: open chains, which build none, lemma2 the power sums at N = 1..5, resum
#: one section per N = 1..3, and fredholm builds its six sections itself
#: for their log det
SUITE_SECTIONS = {"lemma1": 0, "lemma2": 5, "resum": 3, "fredholm": 6}


@pytest.mark.parametrize("suite", SUITE_SECTIONS)
def test_verify_suite_builds_each_section_once(monkeypatch, suite):
    """Each suite reads a section at its highest order first, so the lower
    orders come from the record and no section is built twice for one part."""
    built = _count_sections(monkeypatch)
    toeplitz_module.clear_cache()
    records = verify_module.run_suite(suite, M=128)
    assert all(record["pass"] for record in records)
    assert sum(built.values()) == SUITE_SECTIONS[suite]


def test_verify_all_builds_each_section_once(monkeypatch):
    """In one run of every suite, resum reads the sections lemma2 kept at
    alpha2 = 0.5, M = 128, N = 1..3 to order 3, so it builds none: 11 in all."""
    built = _count_sections(monkeypatch)
    toeplitz_module.clear_cache()
    records = verify_module.run_suite("all", trials=5, M=128)
    assert len(records) == 57
    assert sum(built.values()) == sum(SUITE_SECTIONS.values()) - SUITE_SECTIONS["resum"] == 11


@pytest.mark.parametrize("suite", ["lemma1", "lemma2", "resum"])
def test_verify_records_do_not_depend_on_the_record(suite):
    """A suite gives the same records on cold caches and after every section
    it reads was kept at order 1 only, so its reading order changes no record."""
    toeplitz_module.clear_cache()
    cold = verify_module.run_suite(suite, M=128)
    toeplitz_module.clear_cache()
    for alpha2 in (0.4, 0.5, 0.6):
        params = ic.diagonal_from_alpha2(alpha2)
        grid = ic.make_grid(params, 128)
        for N in range(1, 6):
            ic.phi_2n(params, grid, N, 1)
            ic.F_2n(params, grid, N, 1)
    assert verify_module.run_suite(suite, M=128) == cold
