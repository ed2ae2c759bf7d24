"""The per-separation record of section floats on the grid's moment table.

Every exp/ff entry and every per-order term read through the record must
be the value a cold computation gives, whatever was asked before it, and
every recorded float the value of its own section, whichever block
computed it.
"""

from collections import Counter

import numpy as np
import pytest

import isingcorr as ic
from isingcorr import cli
from isingcorr import fredholm as fredholm_module
from isingcorr import toeplitz as toeplitz_module
from isingcorr import verify as verify_module
from isingcorr.fredholm import BLOCK, section_chains, section_sums
from isingcorr.toeplitz import moment_table, section_size

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


#: the record's grids, the L = M sections at diagonal 0.9 (in CASES) and
#: 1.2 with M = 64, and M = 8, where most blocks run into a table's end
BLOCK_CASES = CASES + [(ic.diagonal_from_alpha2(1.2), 64), (ic.diagonal_from_alpha2(0.5), 8),
                       (ic.diagonal_from_alpha2(2.5), 8)]
BLOCK_IDS = IDS + ["diagonal-0-1.2-M64", "diagonal-0-0.5-M8", "diagonal-0-2.5-M8"]


def _block_separations(params, M):
    """1..40 and 64, N near M, and N around the end of the grid's first
    moment table, past which its blocks stop and a longer table serves."""
    end = 3 * M - 2 * section_size(params, M)
    return sorted(set(SEPARATIONS) | set(range(end - 3, end + 4)) | {M - 1, M, M + 1})


def _read(params, grid, calls, n):
    """Read the sums and chains of (N, part) in calls to order n; return the
    pair (power sums, open chains) the records hold for every separation
    any block filled, across the grid's tables."""
    for N, part in calls:
        (section_sums, section_chains)[part](params, grid, N, n)
    tables = {id(moment_table(params, grid, N)): moment_table(params, grid, N)
              for N, _ in calls}
    return {S: (table.sums.get(S, ()), table.chains.get(S, ()))
            for table in tables.values() for S in table.sums.keys() | table.chains.keys()}


def _single_section(params, grid, S, n):
    """Power sums and open chains of the section at S on its own, with the
    scales their rounding is measured against."""
    table = moment_table(params, grid, S)
    K = np.asarray(ic.build_kernel(params, grid, S))
    P = table.odd_sections[S]
    x, y = table.even[S:S + table.L], table.odd[S:S + table.L]
    above = params.regime is ic.Regime.ABOVE
    s = np.linalg.norm(K, "nuc")
    v, size = (P @ x, np.linalg.norm(P, "nuc") * np.linalg.norm(x)) if above else (y, np.linalg.norm(y))
    chains, scales = [], []
    for k in range(n):
        chains.append(-table.c * (x @ v))
        scales.append(table.c * np.linalg.norm(x) * size * s ** k)
        v = K @ v
    return ic.power_sums(K, n), s ** np.arange(1, n + 1), np.array(chains), np.array(scales)


@pytest.mark.parametrize("params, M", BLOCK_CASES, ids=BLOCK_IDS)
def test_block_record_is_the_record_of_single_sections(params, M):
    """Blocks of BLOCK separations fill the record: each entry is within
    rounding of its own section read alone, is the same bit for bit in
    ascending, descending and overlapping call orders, whichever part is
    read first, and the entries at order 3 are a prefix of those at 6."""
    grid = ic.make_grid(params, M)
    separations = _block_separations(params, M)
    ascending = [(N, part) for N in separations for part in (0, 1)]
    orders = {
        "ascending": ascending,
        "descending": ascending[::-1],
        # every fifth separation first, so later blocks start inside earlier ones
        "overlapping": [(N, 1 - part) for N, part in ascending[7::10] + ascending],
    }
    records = {}
    for name, calls in orders.items():
        toeplitz_module.clear_cache()
        records[name] = _read(params, grid, calls, 3)
    first = records["ascending"]
    for name, record in records.items():
        assert all(len(part) == 3 for S in separations for part in record[S]), name
        # a pass may fill one part past the other; the parts both records hold agree
        differ = [S for S in record.keys() & first.keys()
                  for part, other in zip(record[S], first[S])
                  if part and other and repr(part) != repr(other)]
        assert not differ, (name, differ[:5])
    tiny = np.finfo(float).tiny
    for S, (sums, chains) in first.items():
        assert len(sums) in (0, 3) and len(chains) in (0, 3), S
        want, scale, open_want, open_scale = _single_section(params, grid, S, 3)
        if sums:
            assert np.max(np.abs(np.array(sums) - want) / np.maximum(scale, tiny)) < 1e-12, S
        if chains:
            assert np.max(np.abs(np.array(chains) - open_want) / np.maximum(open_scale, tiny)) < 1e-12, S
    # prefix stability: the order-3 record read again to order 6, and cold at 6
    toeplitz_module.clear_cache()
    _read(params, grid, ascending, 3)
    longer = _read(params, grid, ascending, 6)
    toeplitz_module.clear_cache()
    cold = _read(params, grid, ascending, 6)
    assert longer.keys() == cold.keys() >= first.keys()
    for S in cold:
        assert repr(longer[S]) == repr(cold[S]), S
        assert all(len(part) in (0, 6) for part in cold[S]), S
        if S in first:
            assert repr(tuple(part[:3] for part in cold[S])) == repr(first[S]), S


def test_a_miss_fills_its_block_within_the_table(below, below_grid, above, above_grid):
    """A miss at N fills N alone unless N - 1 is recorded, and then
    N..N + BLOCK - 1, no further than the first table reaches, without
    touching entries the record already holds."""
    for params, grid in ((below, below_grid), (above, above_grid)):
        toeplitz_module.clear_cache()
        table = moment_table(params, grid, 1)
        above_tc = params.regime is ic.Regime.ABOVE
        section_sums(params, grid, 2, 2)
        assert sorted(table.sums) == [2]
        section_sums(params, grid, 3, 2)
        assert sorted(table.sums) == list(range(2, 3 + BLOCK))
        kept = {S: (table.sums[S], table.chains.get(S)) for S in (2, 4, 5)}
        section_sums(params, grid, 1, 1)
        section_sums(params, grid, 4, 1)
        assert sorted(table.sums) == list(range(1, 3 + BLOCK))
        assert all(table.sums[S] is kept[S][0] and table.chains.get(S) is kept[S][1] for S in kept)
        # above T_c the misses of the sums filled the same open chains
        assert sorted(table.chains) == (list(range(1, 3 + BLOCK)) if above_tc else [])
        assert all(len(table.chains.get(S, ())) == (2 if above_tc else 0) for S in range(2, 3 + BLOCK))
        end = len(table.odd) - 2 * table.L
        section_chains(params, grid, end - 3, 3)
        assert max(table.chains) == end - 3
        section_chains(params, grid, end - 2, 3)
        assert max(table.chains) == end
        assert moment_table(params, grid, end + 1) is not table


def _count_sections(monkeypatch):
    """Count build_kernel calls per params, from fredholm's section seam and
    from verify, and the sections they build (a block builds one per
    separation in it)."""
    built, sections = Counter(), Counter()
    build = fredholm_module.build_kernel

    def counted(params, grid, N, *args, **kwargs):
        built[params] += 1
        sections[params] += 1 if isinstance(N, int) else N.stop - N.start
        return build(params, grid, N, *args, **kwargs)

    monkeypatch.setattr(fredholm_module, "build_kernel", counted)
    monkeypatch.setattr(verify_module, "build_kernel", counted)
    return built, sections


@pytest.mark.parametrize("point", [["--diagonal", "--alpha2", "0.5"],
                                   ["--diagonal", "--alpha2", "2.5"],
                                   ["--direct", "0.2", "3.0"]])
def test_table_builds_one_section_per_separation(monkeypatch, capsys, point):
    """det, exp and ff over N = 1..16 build 17 sections in 3 passes: the
    first separation alone, since no run has started, then two blocks of
    BLOCK = 8 (N = 1, 2..9 and 10..17 below T_c, and the hat sections at
    N + 1 = 2, 3..10 and 11..18 above); at --orders 0, none."""
    assert BLOCK == 8
    built, sections = _count_sections(monkeypatch)
    toeplitz_module.clear_cache()
    argv = ["table", *point, "--N", "1..16", "--routes", "det,exp,ff"]
    assert cli.main(argv) == 0
    assert list(built.values()) == [3]
    assert list(sections.values()) == [17]
    built.clear()
    toeplitz_module.clear_cache()
    assert cli.main(argv + ["--orders", "0"]) == 0
    assert not built
    capsys.readouterr()


def test_orders_read_one_section(monkeypatch, below, below_grid, above, above_grid):
    """Lower orders, other routes and the per-order readers reuse the section
    built for the highest order; a higher order builds it once more.  The
    entry at N reads the section at N below T_c and at N + 1 above."""
    built, _ = _count_sections(monkeypatch)
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
        table = moment_table(params, grid, 7)
        assert table.sums and table.chains
        for values in (*table.sums.values(), *table.chains.values()):
            assert type(values) is tuple
            assert all(type(v) is float for v in values), values
    toeplitz_module.clear_cache()
    for params, grid in ((below, below_grid), (above, above_grid)):
        table = moment_table(params, grid, 7)
        assert table.sums == {} and table.chains == {}


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


#: (build_kernel calls, sections built) per suite at M = 128 on cold
#: caches: lemma1 reads only open chains, which build none; lemma2 reads
#: the power sums at N = 1..5 and resum at N = 1..3, each from the section
#: at N = 1 alone and the block N = 2..9 its run starts; fredholm builds
#: its six sections one by one for their log det
SUITE_SECTIONS = {"lemma1": (0, 0), "lemma2": (2, 9), "resum": (2, 9), "fredholm": (6, 6)}


@pytest.mark.parametrize("suite", SUITE_SECTIONS)
def test_verify_suite_builds_each_section_once(monkeypatch, suite):
    """Each suite reads a section at its highest order first, so the lower
    orders come from the record and no section is built twice for one part."""
    built, sections = _count_sections(monkeypatch)
    toeplitz_module.clear_cache()
    records = verify_module.run_suite(suite, M=128)
    assert all(record["pass"] for record in records)
    assert (sum(built.values()), sum(sections.values())) == SUITE_SECTIONS[suite]


def test_verify_all_builds_each_section_once(monkeypatch):
    """In one run of every suite, resum reads what lemma2 kept at
    alpha2 = 0.5, M = 128, N = 1..9 to order 3, so it builds none: 8 builds
    of 15 sections in all, lemma2's two passes and fredholm's six."""
    built, sections = _count_sections(monkeypatch)
    toeplitz_module.clear_cache()
    records = verify_module.run_suite("all", trials=5, M=128)
    assert len(records) == 57
    assert sum(built.values()) == 8
    assert sum(sections.values()) == 15


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
