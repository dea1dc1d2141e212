import importlib.util
import random
import re
import sys
from pathlib import Path

import pytest

import ssetforge.desingularize as desingularize_module
from ssetforge.colimits import (
    Congruence,
    collapse_subcomplex,
    congruence_from_pairs,
    is_regular,
    kernel_congruence,
    quotient,
)
from ssetforge.corpus import gen_corpus
from ssetforge.cylinders import surjective_in_degree
from ssetforge.desingularize import (
    Certificate,
    IntervalMove,
    MoveRecord,
    desingularize,
    desingularized_comparison,
    factor_through_quotient,
    oracle_desingularize,
    zipper_desingularize,
)
from ssetforge.operators import Operator, identity
from ssetforge.posets import barratt
from ssetforge.simplicial import (
    Cell,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    identity_map,
    representing_map,
    standard_simplex,
)
from ssetforge.subdivision import b_nat, sd, t_nat
from ssetforge.textio import format_smap, format_sset
from ssetforge.verify import _compare, _small_quotients

import reference as reference_module
from reference import (
    SimplexCongruence,
    factor_through,
    is_isomorphic,
    quotient_by_classes,
    recursive_vertex_rows,
    reference_desingularize,
    reference_minimal_congruence,
    reference_replay,
    reference_zipper,
    simplex_map_from,
    snapshot_row,
)
from test_colimits import _same_congruence, _table_holds_killed_cells


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    """The benchmark's workload module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_workloads_quotients", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the file runs
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def _cli_small_quotients(seed: int, count: int) -> list:
    """The first ``count`` small quotients the benchmark's cli-small
    workload runs forge desing on at ``seed``, drawn as it draws them."""
    workloads = _workloads()
    rng = random.Random(f"cli-small:{seed}")
    spaces = []
    while len(spaces) < count:
        space = workloads._small_quotient(rng)
        if (len(space.cells) <= workloads.SMALL_QUOTIENT_CELLS
                and zipper_desingularize(space).certificate is Certificate.ZIPPER):
            spaces.append(space)
    return spaces


def counts(space):
    return tuple(len(space.cell_ids(d)) for d in range(space.dim + 1))


def circle():
    delta1 = standard_simplex(1)
    cong = congruence_from_pairs(delta1, [(delta1.simplex(0), delta1.simplex(1))])
    return quotient(delta1, cong).space


def sphere2():
    collapse = Operator(0, (0, 0))
    return SimplicialSet({0: Cell(0, ()), 1: Cell(2, ((0, collapse),) * 3)})


def collapsed_triangle():
    delta2 = standard_simplex(2)
    return collapse_subcomplex(delta2, [3]).space


def test_zipper_fixes_nonsingular():
    for space in (standard_simplex(2), boundary(3)):
        res = zipper_desingularize(space)
        assert res.certificate == Certificate.ZIPPER
        assert res.moves == []
        assert res.quotient.same_presentation(space)
        assert res.eta.is_isomorphism()


def test_zipper_collapses_circle():
    res = zipper_desingularize(circle())
    assert res.certificate == Certificate.ZIPPER
    assert counts(res.quotient) == (1,)
    assert len(res.moves) == 1 and res.moves[0][0].position == 0


def test_zipper_collapses_sphere():
    res = zipper_desingularize(sphere2())
    assert res.certificate == Certificate.ZIPPER
    assert counts(res.quotient) == (1,)


def test_zipper_on_collapsed_triangle():
    space = collapsed_triangle()
    assert is_regular(space) and not space.is_nonsingular()
    res = zipper_desingularize(space)
    assert res.certificate == Certificate.ZIPPER
    assert is_isomorphic(res.quotient, standard_simplex(1))


def test_zipper_on_subdivided_sphere():
    space = sphere2()
    res = zipper_desingularize(sd(space))
    assert res.certificate == Certificate.ZIPPER
    assert res.quotient.is_nonsingular()
    assert is_isomorphic(res.quotient, barratt(space))


def test_replay_confirms_moves():
    space = sd(sphere2())
    res = zipper_desingularize(space)
    again = reference_replay(space, res.moves)
    assert again.quotient.same_presentation(res.quotient)
    assert again.eta.assignment == res.eta.assignment
    bad = [list(batch) for batch in res.moves]
    first = bad[0][0]
    bad[0][0] = type(first)(first.cell, first.degree, first.position + 1)
    with pytest.raises(ValueError):
        reference_replay(space, bad)
    # positions past either end of the cell's vertices
    for position in (-1, first.degree):
        bad[0][0] = type(first)(first.cell, first.degree, position)
        with pytest.raises(ValueError, match="premise fails"):
            reference_replay(space, bad)
    # a move naming no cell of the input
    for mv in (MoveRecord(999, 1, 0), MoveRecord(-1, 1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"{mv} names no cell")):
            reference_replay(standard_simplex(2), [[mv]])


def test_oracle_agrees_with_zipper():
    for space in (circle(), sphere2(), collapsed_triangle(), standard_simplex(1)):
        z = zipper_desingularize(space)
        o = oracle_desingularize(space)
        assert z.certificate == Certificate.ZIPPER
        assert o.certificate == Certificate.ORACLE
        assert is_isomorphic(z.quotient, o.quotient)
        assert (
            kernel_congruence(z.eta).canonical()
            == kernel_congruence(o.eta).canonical()
        )


def test_oracle_bound():
    with pytest.raises(ValueError):
        oracle_desingularize(standard_simplex(3), bound=10)


def _same_result(a, b) -> bool:
    return (format_sset(a.quotient) == format_sset(b.quotient)
            and format_smap(a.eta) == format_smap(b.eta) and a.moves == b.moves)


def test_desingularize_matches_oracle_and_zipper():
    # the verify suite's small quotients (the oracle-agreement skips among
    # them) and 600 of the benchmark's small quotient draws, all inside the
    # oracle's bound: desingularize certifies each, equals the oracle, is
    # the zipper's result byte for byte where the zipper certifies, and its
    # move list replays to the same quotient and eta
    workloads = _workloads()
    small = _small_quotients()
    drawn = [workloads._small_quotient(random.Random(7000 + i)) for i in range(600)]
    stalled = []
    for space in small + drawn:
        res = desingularize(space)
        assert res.certificate is Certificate.ZIPPER
        assert res.quotient.is_nonsingular()
        oracle = oracle_desingularize(space)
        assert (kernel_congruence(res.eta).canonical()
                == kernel_congruence(oracle.eta).canonical())
        z = zipper_desingularize(space)
        # the certificate comes from the zipper's last scan of vertex rows
        assert (z.certificate is Certificate.ZIPPER) == z.quotient.is_nonsingular()
        if z.certificate is Certificate.ZIPPER:
            assert _same_result(res, z)
        else:
            stalled.append(space)
            assert any(isinstance(mv, IntervalMove) for batch in res.moves for mv in batch)
        again = reference_replay(space, res.moves)
        assert again.certificate is Certificate.ZIPPER
        assert _same_result(again, res)
    assert sum(s in stalled for s in small) == 11
    assert sum(s in stalled for s in drawn) == 44


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_corpus_member_certifies(seed):
    stalled = 0
    for entry in gen_corpus(seed):
        res = desingularize(entry.space)
        assert res.certificate is Certificate.ZIPPER, entry.name
        assert _same_result(reference_replay(entry.space, res.moves), res)
        z = zipper_desingularize(entry.space)
        assert (z.certificate is Certificate.ZIPPER) == z.quotient.is_nonsingular()
        if z.certificate is Certificate.ZIPPER:
            assert _same_result(res, z)
        else:
            stalled += 1
    assert stalled > 0


def _pinched_tetrahedron():
    """Delta[3] with its first and last vertices identified: the top cell
    has the vertices (a, b, c, a)."""
    delta3 = standard_simplex(3)
    first, last = sorted(delta3.cell_ids(0))[::3]
    cong = congruence_from_pairs(delta3, [(delta3.simplex(first), delta3.simplex(last))])
    return quotient(delta3, cong).space


def test_interval_move_merges_every_vertex_between():
    space = _pinched_tetrahedron()
    top = max(space.cell_ids(3))
    a, b, c, d = space.vertex_rows()[top]
    assert a == d and len({a, b, c}) == 3
    res = reference_replay(space, [[IntervalMove(top, 0, 3)]])
    assert len(res.quotient.cell_ids(0)) == 1
    out = desingularize(space)
    assert out.certificate is Certificate.ZIPPER
    assert counts(out.quotient) == (1,)
    kinds = [{type(mv) for mv in batch} for batch in out.moves]
    assert kinds == [{MoveRecord}, {IntervalMove}, {MoveRecord}]
    assert IntervalMove(top, 0, 3) in out.moves[1]


def test_replay_rejects_an_interval_move_that_is_not_forced():
    space = _pinched_tetrahedron()
    res = desingularize(space)
    moves = [list(batch) for batch in res.moves]
    mv = moves[1][-1]
    assert mv.j > mv.i + 1
    assert _same_result(reference_replay(space, moves), res)
    for bad in (IntervalMove(mv.cell, mv.i, mv.j - 1), IntervalMove(mv.cell, mv.i + 1, mv.j),
                IntervalMove(mv.cell, mv.i, mv.j + 1)):
        moves[1][-1] = bad
        with pytest.raises(ValueError, match="premise fails"):
            reference_replay(space, moves)
    for mv in (IntervalMove(999, 0, 2), IntervalMove(-1, 0, 2)):
        with pytest.raises(ValueError, match=re.escape(f"{mv} names no cell")):
            reference_replay(standard_simplex(2), [[mv]])


def test_desingularize_idempotent():
    for space in (circle(), sd(sphere2())):
        once = desingularize(space)
        twice = desingularize(once.quotient)
        assert twice.moves == []
        assert twice.quotient.same_presentation(once.quotient)


def test_factor_through_quotient():
    delta1 = standard_simplex(1)
    circ = circle()
    eta = representing_map(circ, 1)
    eta = SimplicialMap(delta1, circ, {c: eta.assignment[c] for c in delta1.cells})
    point = standard_simplex(0)
    squash = simplex_map_from(point, Simplex(0, Operator(0, (0, 0))), delta1)
    h = factor_through_quotient(eta, squash)
    assert h.source is circ and h.target is point
    ident = SimplicialMap(delta1, delta1, {c: delta1.simplex(c) for c in delta1.cells})
    with pytest.raises(ValueError, match="^map does not factor at cell 1$"):
        factor_through_quotient(eta, ident)
    # two points onto one: the map from the first preimage alone is valid,
    # so only the check of the second point refuses it
    pair = SimplicialSet({0: Cell(0, ()), 1: Cell(0, ())})
    onto = SimplicialMap(pair, point, {0: point.simplex(0), 1: point.simplex(0)})
    with pytest.raises(ValueError, match="^map does not factor at cell 1$"):
        factor_through_quotient(onto, identity_map(pair))


def test_factor_through_identity_returns_g():
    # a non-singular space takes no zipper move: the comparison through D
    # is g itself, not a rebuilt copy
    space = standard_simplex(2)
    sds = sd(space)
    res = desingularize(sds)
    assert res.moves == [] and res.eta.source is res.eta.target is sds
    b = b_nat(space, sd_space=sds)
    assert desingularized_comparison(b)[0] is b
    # an identity on another presentation of g's source is factored as before
    copy = SimplicialSet(sds.cells)
    h = factor_through_quotient(identity_map(copy), b)
    assert h is not b and h.source is copy and h.assignment == b.assignment


def _terminal_map(space: SimplicialSet) -> SimplicialMap:
    """The map onto the point, a non-singular target every space maps to."""
    point = standard_simplex(0)
    return SimplicialMap(space, point, {
        c: Simplex(0, Operator(0, (0,) * (cell.dim + 1))) for c, cell in space.cells.items()
    })



def test_factor_through_quotient_matches_the_many_leg_reference(corpus):
    # the one-leg loop against factor_through, the map out of the common
    # target of many legs by its definition: on the verify suite's small
    # quotients, the same with ids reversed, and the seed-0 members and sd
    # images that D moves on, g onto the point (and b : Sd X -> BX on the
    # sd images) factors to the same map, and the identity of eta's
    # source, which D's identifications do not respect, fails at the same
    # first cell
    small = _small_quotients()
    inputs = [(x, None) for x in small + [_reversed_ids(x) for x in small]]
    for e in corpus:
        sds = sd(e.space)
        for space, b in ((e.space, None), (sds, b_nat(e.space, sd_space=sds))):
            if desingularize(space).moves:
                inputs.append((space, b))
    factored = refused = 0
    for space, b in inputs:
        res = desingularize(space)
        eta = res.eta
        for g in (_terminal_map(space), b):
            if g is None:
                continue
            got, want = factor_through_quotient(eta, g), factor_through([eta], [g])
            assert list(got.assignment.items()) == list(want.assignment.items())
            factored += 1
        if res.moves:
            ident = identity_map(space)
            with pytest.raises(ValueError) as got:
                factor_through_quotient(eta, ident)
            with pytest.raises(ValueError) as want:
                factor_through([eta], [ident])
            assert f"{got.value} of leg 0" == str(want.value)
            assert re.fullmatch(r"map does not factor at cell \d+", str(got.value))
            refused += 1
    assert (factored, refused) == (241, 187)


@pytest.fixture
def built(monkeypatch) -> list:
    """Every SimplicialMap constructed while the test runs, in order."""
    maps = []
    real = SimplicialMap.__init__

    def counted(self, *args):
        maps.append(self)
        real(self, *args)

    monkeypatch.setattr(SimplicialMap, "__init__", counted)
    return maps


def test_no_move_builds_no_map(corpus, built):
    # where D makes no move the result holds no projection: desingularize
    # builds no map, the comparison is the map it was given, and eta is
    # the identity, built on its first read and kept
    inputs = [
        (sds, b_nat(e.space, sd_space=sds))
        for e in corpus for sds in [sd(e.space)]
    ]
    inputs += [(x, _terminal_map(x)) for x in _small_quotients()]
    still = moved = 0
    for space, g in inputs:
        built.clear()
        res = desingularize(space)
        if res.moves:
            moved += 1
            assert res.projection is not None and built == [res.projection]
            assert res.eta is res.projection and res.eta.source is space
            built.clear()
            t, again = desingularized_comparison(g)
            assert again.moves == res.moves and built[-1] is t and t is not g
            assert t.source is again.quotient and t.target is g.target
            assert all(t.apply(again.eta.assignment[c]) == g.assignment[c] for c in space.cells)
            continue
        still += 1
        assert built == [] and res.projection is None and res.quotient is space
        t, again = desingularized_comparison(g)
        assert t is g and built == []
        eta = res.eta
        assert built == [eta] and eta.source is eta.target is space
        assert eta.assignment == identity_map(space).assignment
        assert res.eta is eta and len(built) == 2  # the reference identity only
    # the 45 sd images and 22 small quotients D leaves as they are
    assert (still, moved) == (67, 90)


def test_compare_reads_t_off_b_only_when_t_is_b(built):
    # with no move t is b: the comparison builds b and no other map; with
    # moves t is a map of its own, and its verdict is its own
    x = standard_simplex(2)
    found = _compare(x, lambda: sd(x))
    assert len(built) == 1 and len(built[0].source.cells) == found.sd_cells == 25
    assert found.iso and found.b_iso
    built.clear()
    x = collapse_subcomplex(standard_simplex(2), [3]).space  # the last edge collapsed
    found = _compare(x, lambda: sd(x))
    assert len(built) > 2 and found.iso and not found.b_iso


def test_t_nat_iso_for_regular():
    for space in (standard_simplex(2), boundary(2), collapsed_triangle()):
        assert t_nat(space).is_isomorphism()


def test_t_nat_circle_counterexample():
    t = t_nat(circle())
    assert surjective_in_degree(t, t.target.dim)
    zero = [t.assignment[c] for c in t.source.cell_ids(0)]
    assert len(set(zero)) == len(zero) == 2
    assert not t.is_isomorphism()


def _quotient_step(space, cong):
    """The oracle's search step by its definition: quotient by cong (the
    classes walk), take the first non-embedded cell in (dimension, id)
    order, and return its first member as a simplex of space."""
    res = quotient_by_classes(space, cong)
    z = res.space
    order = sorted(z.cells, key=lambda c: (z.cells[c].dim, c))
    rows = recursive_vertex_rows(z)
    bad = next((c for c in order if len(set(rows[c])) != len(rows[c])), None)
    if bad is None:
        return None
    return Simplex(res.space.labels[bad][0], identity(z.cells[bad].dim))


def test_first_singular_matches_quotient_step(corpus, monkeypatch):
    # every small quotient of the verify suite and every seed-0 member with
    # at most ten cells, zipper-uncertified ones among them
    spaces = _small_quotients() + [e.space for e in corpus if len(e.space.cells) <= 10]
    assert sum(
        zipper_desingularize(s).certificate is Certificate.UNCERTIFIED for s in spaces
    ) > 0
    fast = [oracle_desingularize(space) for space in spaces]

    first_singular = desingularize_module._first_singular
    normal_forms = Congruence.normal_forms
    congs = {}
    nodes = 0

    def forms_of(cong):
        # remember which congruence each node's forms came from
        forms = normal_forms(cong)
        congs[id(forms)] = (forms, cong)
        return forms

    def step(space, forms):
        # branch on the reference, and check the helper at every node
        nonlocal nodes
        nodes += 1
        held, cong = congs[id(forms)]
        assert held is forms
        want = _quotient_step(space, cong)
        got = first_singular(space, forms)
        assert got == want and type(got) is type(want)
        return want

    with monkeypatch.context() as m:
        m.setattr(Congruence, "normal_forms", forms_of)
        m.setattr(desingularize_module, "_first_singular", step)
        slow = [oracle_desingularize(space) for space in spaces]
    assert nodes > len(spaces)
    for a, b in zip(fast, slow):
        assert format_sset(a.quotient) == format_sset(b.quotient)
        assert format_smap(a.eta) == format_smap(b.eta)


def test_oracle_search_matches_canonical_keys(corpus, monkeypatch):
    # the search by its definition, keyed, deduplicated and pruned by the
    # full partition (canonical()), a child that strictly contains a
    # sibling not queued: the same nodes in the same order, and the same
    # one minimal congruence
    from collections import deque

    def contains(cong, canon):
        return all(len({cong.find(s) for s in cls}) == 1 for cls in canon)

    def search(space):
        start = Congruence(space)
        seen = {start.canonical()}
        queue = deque([start])
        solutions, order = [], []
        while queue:
            cong = queue.popleft()
            if any(contains(cong, canon) for canon, _ in solutions):
                continue
            order.append(cong.canonical())
            rep = _quotient_step(space, cong)
            if rep is None:
                solutions.append((cong.canonical(), cong))
                continue
            children = {}
            for d in [s for s in space.simplices(rep.degree) if s.is_degenerate]:
                child = cong.copy()
                child.merge(rep, d)
                canon = child.canonical()
                if canon not in seen and canon not in children:
                    children[canon] = child
            for canon, child in children.items():
                if not any(o != canon and contains(child, o) for o in children):
                    seen.add(canon)
                    queue.append(child)
        minimal = [
            c for canon, c in solutions
            if not any(o != canon and contains(c, o) for o, _ in solutions)
        ]
        return order, minimal

    spaces = _small_quotients() + [e.space for e in corpus if len(e.space.cells) <= 10]
    first_singular = desingularize_module._first_singular
    for space in spaces:
        order, minimal = search(space)
        assert len(minimal) == 1
        visited = []

        def step(space, forms):
            # a node's forms pair each cell with a simplex of its class and
            # generate the node's congruence, so its classes are rebuilt here
            cong = congruence_from_pairs(
                space, [(space.simplex(c), f) for c, f in forms.items() if f.cell != c]
            )
            visited.append(cong.canonical())
            return first_singular(space, forms)

        with monkeypatch.context() as m:
            m.setattr(desingularize_module, "_first_singular", step)
            got = desingularize_module._minimal_congruence(space)
        assert visited == order
        assert got.canonical() == minimal[0].canonical()


def test_zipper_and_oracle_match_simplex_reference(corpus, monkeypatch):
    # every zipper move on the small quotients and the seed-0 members with
    # <= 60 cells, and every oracle child on those with <= 10 cells, on the
    # small quotients with their ids reversed and on 600 of the benchmark's
    # seed-7 cli-small inputs: each merge is repeated on a union-find
    # reference, carried through copies, and the two must then hold the
    # same relation
    spaces = _small_quotients() + [e.space for e in corpus if len(e.space.cells) <= 60]
    searched = [x for x in spaces if len(x.cells) <= 10]
    searched += [_reversed_ids(x) for x in _small_quotients()] + _cli_small_quotients(7, 600)
    merge, copy = Congruence.merge, Congruence.copy
    merges = copies = 0

    def shadow(cong):
        if "_shadow" not in vars(cong):
            cong._shadow = SimplexCongruence(cong.space)
        return cong._shadow

    def shadowed_merge(cong, s, t):
        nonlocal merges
        merge(cong, s, t)
        ref = shadow(cong)
        ref.merge(s, t)
        _same_congruence(cong, ref)
        _table_holds_killed_cells(cong)
        merges += 1

    def shadowed_copy(cong):
        nonlocal copies
        other = copy(cong)
        other._shadow = shadow(cong).copy()
        copies += 1
        return other

    with monkeypatch.context() as m:
        m.setattr(Congruence, "merge", shadowed_merge)
        m.setattr(Congruence, "copy", shadowed_copy)
        for x in spaces:
            zipper_desingularize(x)
        zipper_merges = merges
        for x in searched:
            oracle_desingularize(x)
    assert zipper_merges >= 150 and merges - zipper_merges >= 1500 and copies >= 1500


def test_oracle_branches_once_per_class(monkeypatch):
    # over the small quotients: one child per class of degenerate simplices
    # builds strictly fewer children than one per degenerate simplex; the
    # nodes and their order are pinned by the canonical-keys test above
    first_singular = desingularize_module._first_singular
    copy = Congruence.copy
    children = per_simplex = 0

    def counted_copy(cong):
        nonlocal children
        children += 1
        return copy(cong)

    def step(space, forms):
        nonlocal per_simplex
        rep = first_singular(space, forms)
        if rep is not None:
            per_simplex += sum(s.is_degenerate for s in space.simplices(rep.degree))
        return rep

    with monkeypatch.context() as m:
        m.setattr(Congruence, "copy", counted_copy)
        m.setattr(desingularize_module, "_first_singular", step)
        for space in _small_quotients():
            oracle_desingularize(space)
    assert 0 < children < per_simplex


def _reversed_ids(space: SimplicialSet) -> SimplicialSet:
    """The same space with its cell ids in reverse order, so that cells of
    higher dimension come first."""
    top = max(space.cells)
    return SimplicialSet({
        top - cid: Cell(cell.dim, tuple((top - t, op) for t, op in cell.faces))
        for cid, cell in space.cells.items()
    })


def test_oracle_search_leaves_one_minimal_congruence(monkeypatch):
    # the congruences with a non-singular quotient are closed under meets,
    # so the search's filter leaves exactly one: on the verify suite's small
    # quotients and 600 of the benchmark's seed-7 cli-small inputs, each
    # also with its ids reversed, so that cells of higher dimension come
    # first and the search meets its classes in another order.  The
    # unpruned reference search records two solutions or more on some of
    # them, so there the filter has work to do
    first_singular = reference_module._first_singular
    spaces = _small_quotients() + _cli_small_quotients(7, 600)
    spaces += [_reversed_ids(space) for space in spaces]
    solutions = 0

    def counted(space, forms):
        # a node with no singular cell is recorded as a solution
        nonlocal solutions
        rep = first_singular(space, forms)
        solutions += rep is None
        return rep

    several = []
    with monkeypatch.context() as m:
        m.setattr(reference_module, "_first_singular", counted)
        for space in spaces:
            assert isinstance(desingularize_module._minimal_congruence(space), Congruence)
            solutions = 0
            reference_minimal_congruence(space)
            if solutions >= 2:
                several.append(space)
    assert len(several) == 301
    # with no solution containing another, neither the sibling rule nor the
    # filter drops a solution, and the oracle refuses rather than pick one
    space = several[0]
    oracle_desingularize(space)
    with monkeypatch.context() as m:
        m.setattr(desingularize_module, "_contains", lambda cong, pairs: False)
        with pytest.raises(RuntimeError, match="minimal non-singular congruences"):
            oracle_desingularize(space)


def test_pruned_search_matches_unpruned_reference(corpus, monkeypatch):
    # queuing only the children that strictly contain no sibling finds the
    # same minimal congruence as queuing every new child, so the oracle
    # gives the same quotient and eta byte for byte, from fewer children:
    # on the small quotients, also with their ids reversed, 600 of the
    # benchmark's seed-7 cli-small inputs and the seed-0 members with at
    # most ten cells
    small = _small_quotients()
    spaces = small + [_reversed_ids(x) for x in small] + _cli_small_quotients(7, 600)
    spaces += [e.space for e in corpus if len(e.space.cells) <= 10]
    copy = Congruence.copy
    children = 0

    def counted_copy(cong):
        nonlocal children
        children += 1
        return copy(cong)

    monkeypatch.setattr(Congruence, "copy", counted_copy)
    pruned = unpruned = 0
    for space in spaces:
        children = 0
        got = desingularize_module._minimal_congruence(space)
        pruned += children
        children = 0
        want = reference_minimal_congruence(space)
        unpruned += children
        assert got.canonical() == want.canonical()
        res, ref = oracle_desingularize(space), quotient(space, want)
        assert format_sset(res.quotient) == format_sset(ref.space)
        assert format_smap(res.eta) == format_smap(ref.projection)
    assert 0 < pruned < unpruned


@pytest.fixture(scope="module")
def one_congruence_inputs() -> list:
    """The verify suite's small quotients, 600 of the benchmark's small
    quotient draws, the seed 0-3 corpus members and the sd images of those
    with at most 60 cells, each also with its ids reversed, so that ids are
    not in (dimension, id) order."""
    workloads = _workloads()
    members = [e.space for seed in range(4) for e in gen_corpus(seed)]
    spaces = _small_quotients()
    spaces += [workloads._small_quotient(random.Random(7000 + i)) for i in range(600)]
    spaces += members + [sd(x) for x in members if len(x.cells) <= 60]
    return spaces + [_reversed_ids(x) for x in spaces]


def _result_key(res) -> tuple:
    return (
        format_sset(res.quotient), format_smap(res.eta), res.certificate, res.witness, res.moves
    )


def test_one_congruence_matches_round_by_round_reference(one_congruence_inputs):
    # every move on one congruence over the input and one quotient give D,
    # eta, the certificate and the move list byte for byte as a new
    # congruence and a quotient per round did, and each move list replays
    # to the same result under the reference replay
    assert len(one_congruence_inputs) == 2210
    moved = interval = several = 0
    for space in one_congruence_inputs:
        for run, reference in ((zipper_desingularize, reference_zipper),
                               (desingularize, reference_desingularize)):
            res, ref = run(space), reference(space)
            key = _result_key(res)
            assert key == _result_key(ref)
            assert (res.quotient is space) == (ref.quotient is space)
            assert _result_key(reference_replay(space, res.moves)) == key
        moved += bool(res.moves)
        interval += any(isinstance(mv, IntervalMove) for batch in res.moves for mv in batch)
        several += len(res.moves) > 1
    assert (moved, interval, several) == (1344, 124, 124)


def test_one_quotient_per_call(one_congruence_inputs, monkeypatch):
    # desingularize and zipper_desingularize each quotient at most once,
    # and not at all when no move is taken, however many rounds
    calls = 0

    def counted(space, cong):
        nonlocal calls
        calls += 1
        return quotient(space, cong)

    monkeypatch.setattr(desingularize_module, "quotient", counted)
    several = 0
    for space in one_congruence_inputs:
        for run in (zipper_desingularize, desingularize):
            calls = 0
            res = run(space)
            assert calls == bool(res.moves)
        several += len(res.moves) > 1
    assert several == 124


def test_scan_rows_match_snapshot_rows(monkeypatch):
    # every scan of every round on the verify suite's small quotients and
    # 600 of the benchmark's cli-small draws, by the zipper and by D: the
    # singular first cells, in order, each with its row as the snapshot
    # definition gives it, and no other cell.  Rounds after the first read
    # the table through the killed vertices' cells, and many run here
    spaces = _small_quotients() + _cli_small_quotients(7, 600)
    scan = desingularize_module._singular_rows
    later = 0

    def checked(space, snap):
        nonlocal later
        got = scan(space, snap)
        rows = [(c, snapshot_row(space, snap, c)) for c in space.cell_order() if c not in snap]
        assert got == [(c, vs) for c, vs in rows if len(set(vs)) < len(vs)]
        later += bool(snap)
        return got

    monkeypatch.setattr(desingularize_module, "_singular_rows", checked)
    several = 0
    for space in spaces:
        for run in (zipper_desingularize, desingularize):
            several += len(run(space).moves) > 1
    assert several >= 10 and later >= 1_000


def test_recorded_moves_match_the_merges_made(one_congruence_inputs, monkeypatch):
    # each zipper move merges once and each interval move (i, j) merges the
    # j - i - 1 vertices between, so the move list accounts for every merge
    # the loop makes: a round that merged other than it recorded fails here
    # even where the quotient comes out the same
    merges = 0

    class Counted(Congruence):
        def merge(self, s, t):
            nonlocal merges
            merges += 1
            super().merge(s, t)

    monkeypatch.setattr(desingularize_module, "Congruence", Counted)
    spaces = [_pinched_tetrahedron(), *one_congruence_inputs]
    widths = []
    for space in spaces:
        for run in (zipper_desingularize, desingularize):
            merges = 0
            res = run(space)
            moves = [mv for batch in res.moves for mv in batch]
            zipper = sum(isinstance(mv, MoveRecord) for mv in moves)
            width = sum(mv.j - mv.i - 1 for mv in moves if isinstance(mv, IntervalMove))
            assert merges == zipper + width
            widths.append(width)
    # the pinched tetrahedron's interval round merges 4 vertices, 2 of them
    # for its top cell's (0, 3), and each of the 124 inputs that take an
    # interval move merges at least one vertex by it
    assert widths[:2] == [0, 4]
    assert sum(w > 0 for w in widths) == 1 + 124
