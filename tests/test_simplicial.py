from __future__ import annotations

import random
from dataclasses import dataclass
from types import SimpleNamespace

import pytest

from ssetforge import verify
from ssetforge.colimits import collapse_subcomplex, product, pushout
from ssetforge.corpus import gen_corpus
from ssetforge.cylinders import cylinder_reduction, representing_sharp, surjective_in_degree
from ssetforge.desingularize import desingularize
from ssetforge.operators import (
    Operator,
    all_degeneracies,
    compose,
    ez_factor,
    face_split,
    identity,
    make_face,
    make_vertex,
)
from ssetforge.simplicial import (
    Cell,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    boundary,
    compose_maps,
    generate,
    identity_map,
    representing_map,
    simplex_map,
    standard_simplex,
    _identity_getters,
)

from ssetforge.posets import (
    MonotoneMap,
    all_posets,
    barratt,
    barratt_map,
    chain_poset,
    cylinder_end,
    nerve,
    nerve_map,
    poset_pushout,
    product_poset,
    singleton_poset,
)
from ssetforge.subdivision import sd

from reference import (
    all_operators,
    find_isomorphism,
    injective_by_simplices,
    is_isomorphic,
    make_degen,
    recursive_vertex_rows,
)


def circle() -> SimplicialSet:
    # one vertex, one edge with both ends attached to it
    return SimplicialSet({0: Cell(0, ()), 1: Cell(1, ((0, identity(0)), (0, identity(0))))})


def to_point(x: SimplicialSet) -> SimplicialMap:
    # every cell to the degenerate simplex of the point in its degree
    point = standard_simplex(0)
    return SimplicialMap(x, point, {c: Simplex(0, Operator(0, (0,) * (x.cells[c].dim + 1))) for c in x.cells})


def sphere2() -> SimplicialSet:
    # one vertex, one 2-cell with all faces the degenerate edge
    collapse = Operator(0, (0, 0))
    return SimplicialSet({0: Cell(0, ()), 1: Cell(2, ((0, collapse),) * 3)})


def test_standard_simplex_structure():
    for n in range(4):
        delta = standard_simplex(n)
        assert len(delta.cells) == 2 ** (n + 1) - 1
        assert delta.dim == n
        assert delta.is_nonsingular()
        top = delta.cell_ids(n)[0]
        assert delta.vertex_rows()[top] == tuple(delta.cell_ids(0))


def test_boundary_counts():
    assert len(boundary(1).cells) == 2
    assert len(boundary(2).cells) == 6
    assert len(boundary(3).cells) == 14
    assert boundary(3).dim == 2


def test_validation_errors():
    with pytest.raises(ValueError, match="missing cell"):
        SimplicialSet({0: Cell(1, ((1, identity(0)), (0, identity(0))))})
    with pytest.raises(ValueError, match="stores"):
        SimplicialSet({0: Cell(1, ())})
    with pytest.raises(ValueError, match="not surjective"):
        bad = Operator(1, (0,))
        SimplicialSet({0: Cell(0, ()), 1: Cell(1, ((0, identity(0)),) * 2), 2: Cell(1, ((1, bad), (1, bad)))})
    # a 2-cell whose edge endpoints cannot close up
    delta1 = standard_simplex(1)
    with pytest.raises(ValueError, match="face identities"):
        SimplicialSet(
            {
                0: Cell(0, ()),
                1: Cell(0, ()),
                2: Cell(0, ()),
                3: Cell(1, ((1, identity(0)), (0, identity(0)))),
                4: Cell(1, ((2, identity(0)), (1, identity(0)))),
                5: Cell(1, ((0, identity(0)), (2, identity(0)))),
                # faces 0,1,2 of a triangle must satisfy d0 d0 == d0 d1 etc.
                6: Cell(2, ((3, identity(1)), (4, identity(1)), (5, identity(1)))),
            }
        )


def test_eval_on_circle():
    x = circle()
    e = x.simplex(1)
    assert x.eval(e, make_vertex(0, 1)) == x.eval(e, make_vertex(1, 1)) == x.simplex(0)
    assert x.vertex_rows()[1] == (0, 0)
    assert not x.is_nonsingular()
    # a degenerate 2-simplex on the edge, then its faces
    s = Simplex(1, make_degen(0, 1))
    assert x.eval(s, make_face(0, 2)) == e
    assert x.eval(s, make_face(1, 2)) == e
    assert x.eval(s, make_face(2, 2)) == Simplex(0, Operator(0, (0, 0)))


def test_eval_contravariant_exhaustive():
    spaces = [standard_simplex(2), circle(), sphere2()]
    for x in spaces:
        for cid in x.cells:
            s = x.simplex(cid)
            d = s.degree
            for mid in range(3):
                for alpha in all_operators(mid, d):
                    t = x.eval(s, alpha)
                    for low in range(mid + 1):
                        for beta in all_operators(low, mid):
                            assert x.eval(t, beta) == x.eval(s, compose(beta, alpha))


def test_simplices_enumeration():
    x = standard_simplex(1)
    assert len(list(x.simplices(0))) == 2
    assert len(list(x.simplices(1))) == 3
    assert len(list(x.simplices(2))) == 4
    assert len(list(sphere2().simplices(2))) == 2


def test_siblings():
    x = sphere2()
    # the 2-cell and the doubly degenerate vertex share their vertex sequence
    a = x.simplex(1)
    b = Simplex(0, Operator(0, (0, 0, 0)))
    row = x.vertex_rows()[b.cell]
    assert a.degree == b.degree
    assert x.vertex_rows()[a.cell] == tuple(row[v] for v in b.degen.values) == (0, 0, 0)
    assert len(set(x.vertex_rows()[1])) < 3


def test_generate_two_edges():
    delta = standard_simplex(2)
    edges = delta.cell_ids(1)[:2]
    sub, incl = generate(delta, edges)
    assert len(sub.cell_ids(0)) == 3
    assert len(sub.cell_ids(1)) == 2
    assert len(sub.cell_ids(2)) == 0
    assert incl.is_degreewise_injective()
    assert not surjective_in_degree(incl, incl.target.dim)


def test_representing_map():
    x = sphere2()
    f = representing_map(x, 1)
    assert f.source.same_presentation(standard_simplex(2))
    assert f.apply(f.source.simplex(f.source.cell_ids(2)[0])) == x.simplex(1)
    assert surjective_in_degree(f, f.target.dim)
    assert not f.is_degreewise_injective()


def test_map_validation():
    delta1 = standard_simplex(1)
    x = circle()
    # both vertices to the point, edge to the edge
    good = SimplicialMap(delta1, x, {0: x.simplex(0), 1: x.simplex(0), 2: x.simplex(1)})
    assert good.apply(delta1.simplex(2)) == x.simplex(1)
    with pytest.raises(ValueError, match="no assignment"):
        SimplicialMap(delta1, x, {0: x.simplex(0), 1: x.simplex(0)})
    with pytest.raises(ValueError, match="wrong degree"):
        SimplicialMap(delta1, x, {0: x.simplex(0), 1: x.simplex(0), 2: x.simplex(0)})
    # edge sent to a degenerate edge while endpoints differ
    delta_pair = standard_simplex(1)
    with pytest.raises(ValueError, match="not simplicial"):
        SimplicialMap(
            delta_pair,
            standard_simplex(1),
            {
                0: standard_simplex(1).simplex(0),
                1: standard_simplex(1).simplex(1),
                2: Simplex(0, Operator(0, (0, 0))),
            },
        )


def test_identity_and_compose():
    x = standard_simplex(2)
    i = identity_map(x)
    assert i.is_isomorphism()
    f = representing_map(sphere2(), 1)
    g = compose_maps(identity_map(f.source), f)
    assert g.assignment == f.assignment


def test_maps_compare_by_value_and_are_not_hashed():
    # equal maps would hash apart by identity, so a map has no hash
    f = representing_map(sphere2(), 1)
    g = compose_maps(identity_map(f.source), f)
    assert g == f and g is not f
    with pytest.raises(TypeError):
        hash(f)


def test_degreewise_checks_above_dim():
    # the collapse of an interval to a point is surjective, not injective
    x = standard_simplex(1)
    f = to_point(x)
    assert not f.is_degreewise_injective()
    assert surjective_in_degree(f, f.target.dim)


def test_isomorphism_search():
    a = standard_simplex(2)
    relabeled = SimplicialSet(
        {cid + 7: Cell(c.dim, tuple((t + 7, op) for t, op in c.faces)) for cid, c in a.cells.items()}
    )
    iso = find_isomorphism(a, relabeled)
    assert iso is not None
    assert all(relabeled.cells[iso[c]].dim == a.cells[c].dim for c in a.cells)
    assert not is_isomorphic(a, boundary(2))
    assert is_isomorphic(circle(), circle())
    assert not is_isomorphic(circle(), sphere2())
    # same cell counts per dimension but different attachments
    two_loops = SimplicialSet(
        {
            0: Cell(0, ()),
            1: Cell(0, ()),
            2: Cell(1, ((0, identity(0)), (0, identity(0)))),
            3: Cell(1, ((1, identity(0)), (1, identity(0)))),
        }
    )
    interval_pair = SimplicialSet(
        {
            0: Cell(0, ()),
            1: Cell(0, ()),
            2: Cell(1, ((1, identity(0)), (0, identity(0)))),
            3: Cell(1, ((1, identity(0)), (0, identity(0)))),
        }
    )
    assert not is_isomorphic(two_loops, interval_pair)


def test_simplex_map_of_degenerate_simplex():
    x = standard_simplex(1)
    s = Simplex(2, make_degen(0, 1))  # the edge, degenerated to degree 2
    f = simplex_map(x, s)
    assert f.source.same_presentation(standard_simplex(2))
    assert f.apply(f.source.simplex(f.source.cell_ids(2)[0])) == s


@dataclass(frozen=True)
class _DataclassSimplex:
    # the frozen-dataclass form of Simplex, as the reference for its tuple form
    cell: int
    degen: Operator


def test_simplex_tuple_matches_dataclass_form(corpus):
    # hash, equality and repr of every simplex, up to one degree above the
    # dimension, of the small corpus members agree with the dataclass form
    small = [e.space for e in corpus if len(e.space.cells) <= 12]
    assert len(small) >= 4
    for x in small:
        for q in range(x.dim + 2):
            simplices = list(x.simplices(q))
            olds = [_DataclassSimplex(s.cell, s.degen) for s in simplices]
            for s, old in zip(simplices, olds):
                assert hash(s) == hash(old) == hash((s.cell, s.degen))
                assert repr(s) == "Simplex" + repr(old)[len("_DataclassSimplex"):]
                assert s == (s.cell, s.degen)
                image = x.eval(s, identity(q))
                assert image == s and hash(image) == hash(old)
            for s, old in zip(simplices, olds):
                for t, old_t in zip(simplices, olds):
                    assert (s == t) == (old == old_t)


def _eval_by_factoring(cells, s, op, faces=None):
    # the general path of eval on a bare cell table, with no fast path:
    # factor, take the face through the stored tables, recompose; faces,
    # when given, memoizes the faces of cells
    mu, tau = ez_factor(compose(op, s.degen))
    z = _face_by_factoring(cells, s.cell, mu, faces)
    return Simplex(z.cell, compose(tau, z.degen))


def _face_by_factoring(cells, cid, mu, faces=None):
    if mu.is_identity:
        return Simplex(cid, mu)
    if faces is not None and (cid, mu) in faces:
        return faces[(cid, mu)]
    i, rest = face_split(mu)
    target, sigma = cells[cid].faces[i]
    out = _eval_by_factoring(cells, Simplex(target, sigma), rest, faces)
    if faces is not None:
        faces[(cid, mu)] = out
    return out


def test_identity_eval_matches_general_path(corpus):
    # every simplex, up to one degree above the dimension, of the small
    # seed-0 members: eval by an identity gives what the general path does,
    # as a Simplex, also when handed a plain (cell, degen) pair
    small = [e.space for e in corpus if len(e.space.cells) <= 12]
    assert len(small) >= 4
    for x in small:
        for q in range(x.dim + 2):
            for s in x.simplices(q):
                want = _eval_by_factoring(x.cells, s, identity(q))
                got = x.eval(s, identity(q))
                assert got == want == s and type(got) is Simplex
                plain = x.eval((s.cell, s.degen), identity(q))
                assert plain == want and type(plain) is Simplex


def test_identity_eval_checks_rank():
    x = standard_simplex(2)
    s = x.simplex(x.cell_ids(1)[0])
    for wrong in (0, 2):
        with pytest.raises(ValueError, match="does not land"):
            x.eval(s, identity(wrong))


def test_map_rejects_assignment_not_in_normal_form():
    # the vertex of Delta[0] sent to the first vertex of Delta[1], written as
    # the edge with a face operator instead of as the vertex cell
    point, interval = standard_simplex(0), standard_simplex(1)
    edge = interval.cell_ids(1)[0]
    bad = Simplex(edge, make_vertex(0, 1))
    with pytest.raises(ValueError, match="not in normal form"):
        SimplicialMap(point, interval, {0: bad})
    good = interval.eval(interval.simplex(edge), make_vertex(0, 1))
    assert SimplicialMap(point, interval, {0: good}).apply(point.simplex(0)) == good


def _small_members(corpus, cells=60):
    return [e.space for e in corpus if len(e.space.cells) <= cells]


def test_eval_matches_factoring_path(corpus):
    # every simplex of degree <= dim+1 of the seed-0 members with <= 60
    # cells, under every operator into it from a degree <= dim+1: eval,
    # with its identity, degeneracy and face-of-a-cell shortcuts, gives
    # the EZ-path result
    members = _small_members(corpus)
    assert len(members) >= 40
    pairs = shortcuts = cell_faces = 0
    most = max(x.dim for x in members) + 1
    into = [[op for p in range(most + 1) for op in all_operators(p, q)] for q in range(most + 1)]
    for x in members:
        top, faces = x.dim + 1, {}
        for q in range(top + 1):
            ops = [op for op in into[q] if op.src <= top]
            for s in x.simplices(q):
                for op in ops:
                        got = x.eval(s, op)
                        assert got == _eval_by_factoring(x.cells, s, op, faces)
                        assert type(got) is Simplex
                        pairs += 1
                        shortcuts += compose(op, s.degen).is_degeneracy
                        cell_faces += op.is_face and not op.is_identity and not s.is_degenerate
    assert pairs >= 300_000
    assert shortcuts >= 10_000
    assert cell_faces >= 1_500


def test_cell_vertices_match_vertex_faces(corpus):
    # vertices read off the last and first stored faces agree with the
    # definition, the face through each vertex inclusion, both as the
    # space computes it and through the EZ path on the bare table
    for entry in corpus:
        x = entry.space
        for cid, cell in x.cells.items():
            d = cell.dim
            want = tuple(x._cell_face(cid, make_vertex(j, d)).cell for j in range(d + 1))
            assert want == tuple(
                _face_by_factoring(x.cells, cid, make_vertex(j, d)).cell for j in range(d + 1)
            )
            assert x.vertex_rows()[cid] == want


def _rows_match_recursion(space) -> tuple[int, int, int]:
    """Vertex rows of the space and of a fresh copy of its table against
    the recursive reference, a row for every cell.  Returns the number of
    rows, and how many of them the one pass fills through a last face
    stored under the identity and through a degenerate one."""
    fresh = SimplicialSet(space.cells)
    want = recursive_vertex_rows(space)
    rows = fresh.vertex_rows()
    assert rows == want and list(rows) == list(fresh.cell_order())
    assert fresh.vertex_rows() is rows
    assert space.vertex_rows() == want
    lasts = [cell.faces[-1][1] for cell in space.cells.values() if cell.dim]
    ident = sum(op.is_identity for op in lasts)
    return len(want), ident, len(lasts) - ident


def _faces_first_renumbered(x: SimplicialSet, rng: random.Random) -> SimplicialSet:
    """x with its ids permuted and its cells inserted top dimension first,
    so each cell of positive dimension comes before its faces."""
    new = dict(zip(x.cells, rng.sample(range(10 * len(x.cells)), len(x.cells))))
    cells = {
        new[cid]: Cell(x.cells[cid].dim, tuple((new[t], op) for t, op in x.cells[cid].faces))
        for cid in reversed(x.cell_order())
    }
    return SimplicialSet(cells)


def test_one_pass_vertex_rows_match_recursion():
    # seeds 0-2 members and their sd images, the cylinders T and their
    # desingularizations D T that the seed-0 dcr suite builds, seeded
    # products, and members renumbered so a cell precedes its faces; both
    # kinds of last face fill many rows, so a fill that mistakes either
    # kind fails here
    rng = random.Random(37)
    spaces = []
    for seed in range(3):
        members = [e.space for e in gen_corpus(seed)]
        spaces += members + [sd(x) for x in members]
    seed0 = list(gen_corpus(0))
    for entry in seed0:
        x = entry.space
        if not entry.regular or len(x.cells) > verify._DCR_MAX_CELLS:
            continue
        for q in range(x.dim + 1):
            for y in x.simplices(q):
                if not y.is_degenerate or len(x.cells) <= verify._DCR_ALL_SIMPLEX_CELLS:
                    t = cylinder_reduction(representing_sharp(x, y)).space
                    spaces += [t, desingularize(t).quotient]
    small = [e.space for e in seed0 if len(e.space.cells) <= 12]
    spaces += [product(rng.choice(small), rng.choice(small)).space for _ in range(20)]
    renumbered = [_faces_first_renumbered(e.space, rng) for e in seed0]
    for x in renumbered:
        pos = {cid: k for k, cid in enumerate(x.cells)}
        assert all(pos[cid] < pos[t] for cid, cell in x.cells.items() for t, _ in cell.faces)
    cells = ident = degenerate = 0
    for x in spaces + renumbered:
        n, a, b = _rows_match_recursion(x)
        cells, ident, degenerate = cells + n, ident + a, degenerate + b
    assert len(spaces) >= 750 and cells >= 90_000
    assert ident >= 75_000 and degenerate >= 3_000


class _FilledTable(dict):
    """A vertex-row table that refuses every write."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a vertex-row table was written after its fill")

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = clear = pop = popitem = setdefault = _refuse


def test_no_program_path_writes_a_filled_vertex_row_table(monkeypatch):
    # vertex_rows hands out the space's own table; each table is swapped
    # for one that refuses writes once it is filled (by the one pass, or
    # by a nerve's constructor), and `verify all` on seed 0 must run and
    # pass with every reader of the table behind that swap
    fill = SimplicialSet.vertex_rows
    counts = {"tables": 0, "reads": 0}

    def filled_rows(self):
        rows = fill(self)
        counts["reads"] += 1
        if type(rows) is not _FilledTable:
            rows = self._vertex_cache = _FilledTable(rows)
            counts["tables"] += 1
        return rows

    monkeypatch.setattr(SimplicialSet, "vertex_rows", filled_rows)
    x = standard_simplex(2)
    rows = x.vertex_rows()
    assert x.vertex_rows() is rows and rows[next(iter(rows))] == (next(iter(rows)),)
    with pytest.raises(TypeError, match="written after its fill"):
        rows[max(rows) + 1] = (0,)
    with pytest.raises(TypeError, match="written after its fill"):
        rows.setdefault(max(rows) + 1, (0,))
    counts.update(tables=0, reads=0)
    report = verify.run_suite("all", gen_corpus(0))
    assert report.ok and len(report.cases) >= 700
    assert counts["tables"] >= 1_200 and counts["reads"] >= 3_000


def _validate_set_by_eval(cells):
    # the presentation checks, every face of a face through the EZ path
    for cid, cell in cells.items():
        expected = 0 if cell.dim == 0 else cell.dim + 1
        if len(cell.faces) != expected:
            raise ValueError(f"cell {cid} of dimension {cell.dim} stores {len(cell.faces)} faces")
        for i, (target, op) in enumerate(cell.faces):
            if target not in cells:
                raise ValueError(f"cell {cid} face {i} targets missing cell {target}")
            if not op.is_degeneracy:
                raise ValueError(f"cell {cid} face {i} operator {op} is not surjective")
            if op.src != cell.dim - 1 or op.dst != cells[target].dim:
                raise ValueError(f"cell {cid} face {i} has mismatched ranks")
    for cid, cell in cells.items():
        for j in range(cell.dim + 1 if cell.dim >= 2 else 0):
            for i in range(j):
                a = _eval_by_factoring(cells, Simplex(*cell.faces[j]), make_face(i, cell.dim - 1))
                b = _eval_by_factoring(cells, Simplex(*cell.faces[i]), make_face(j - 1, cell.dim - 1))
                if a != b:
                    raise ValueError(
                        f"face identities fail at cell {cid}: faces ({i},{j}) give {a} vs {b}"
                    )


def _validate_map_by_eval(source, target, assignment):
    # the map checks, both sides of every face through the EZ path
    for cid, cell in source.cells.items():
        s = assignment.get(cid)
        if s is None:
            raise ValueError(f"no assignment for cell {cid}")
        if s.cell not in target.cells:
            raise ValueError(f"cell {cid} sent to missing cell {s.cell}")
        if s.degree != cell.dim or s.degen.dst != target.cells[s.cell].dim:
            raise ValueError(f"cell {cid} sent to simplex of wrong degree")
        if not s.degen.is_degeneracy:
            raise ValueError(f"cell {cid} sent to {s}, which is not in normal form")
    for cid, cell in source.cells.items():
        for i in range(cell.dim + 1 if cell.dim else 0):
            got = _eval_by_factoring(target.cells, assignment[cid], make_face(i, cell.dim))
            t, sigma = cell.faces[i]
            want = _eval_by_factoring(target.cells, assignment[t], sigma)
            if got != want:
                raise ValueError(
                    f"assignment not simplicial at cell {cid}, face {i}: {got} vs {want}"
                )


def _verdict(check, *args):
    try:
        check(*args)
    except ValueError as err:
        return str(err)
    return None


def _mutate_presentation(rng, x):
    # one stored face of one cell changed: its target, its degeneracy or both,
    # kept rank-correct most of the time so the face identities decide
    cells = dict(x.cells)
    cid = rng.choice([c for c in sorted(cells) if cells[c].dim >= 1])
    cell = cells[cid]
    i = rng.randrange(len(cell.faces))
    target, sigma = cell.faces[i]
    if rng.random() < 0.15:
        target = rng.choice(sorted(cells))
    else:
        same = [c for c in sorted(cells) if cells[c].dim == sigma.dst and c != target]
        if same and rng.random() < 0.8:
            target = rng.choice(same)
        onto = [op for op in all_degeneracies(cell.dim - 1, sigma.dst) if op != sigma]
        if onto and (rng.random() < 0.5 or target == cell.faces[i][0]):
            sigma = rng.choice(onto)
    faces = cell.faces[:i] + ((target, sigma),) + cell.faces[i + 1 :]
    cells[cid] = Cell(cell.dim, faces)
    return cells


def _cylinder_posets():
    # P, P x [1] and the cone's pushout poset over every poset with at most
    # four elements: the posets a cylinder takes nerves of
    for p in all_posets(4)[1:]:
        apex = singleton_poset("apex")
        phi = MonotoneMap(p, apex, {e: "apex" for e in p.elements})
        cyl = product_poset(p, chain_poset(1))
        v = poset_pushout(cylinder_end(p, cyl, 0), phi)
        yield p, apex, cyl, v, phi


def _nerves(corpus):
    # every face of every cell is a cell: the row-wise path's inputs
    out = [barratt(x) for x in _small_members(corpus, 20)]
    for p, _, cyl, v, _ in _cylinder_posets():
        out += [nerve(p), nerve(cyl), nerve(v.poset)]
    return [n for n in out if n.dim >= 2]


def _all_faces_cells(cells):
    return all(op.is_identity for c in cells.values() for _, op in c.faces)


def test_set_validation_matches_eval_reference(corpus):
    rng = random.Random(20200901)
    members = [x for x in _small_members(corpus) if x.dim >= 1]
    verdicts = []
    for _ in range(1200):
        cells = _mutate_presentation(rng, rng.choice(members))
        want = _verdict(_validate_set_by_eval, cells)
        assert _verdict(SimplicialSet, cells) == want
        verdicts.append(want)
    # both sides of a failed identity print as a Simplex, table reads too
    faces = [v for v in verdicts if v and v.startswith("face identities")]
    assert all(v.count("Simplex(cell=") == 2 for v in faces)
    assert len(faces) >= 400 and verdicts.count(None) >= 400
    # nerves, as built and with one face changed; a change that keeps every
    # face a cell runs the row-wise comparison on every cell, and a failed
    # row falls back to naming the first pair
    nerves = _nerves(corpus)
    assert len(nerves) >= 60
    row_wise = {"pass": 0, "fail": 0}
    for n in nerves:
        assert _verdict(_validate_set_by_eval, n.cells) is None
        assert _verdict(SimplicialSet, n.cells) is None
        row_wise["pass"] += 1
    for _ in range(1500):
        cells = _mutate_presentation(rng, rng.choice(nerves))
        want = _verdict(_validate_set_by_eval, cells)
        assert _verdict(SimplicialSet, cells) == want
        if _all_faces_cells(cells):
            row_wise["pass" if want is None else "fail"] += 1
            assert want is None or want.startswith(("face identities", "cell"))
    assert row_wise["pass"] >= 80 and row_wise["fail"] >= 300, row_wise
    # products, as built and with one face changed: cells up to dimension 4
    # with degenerate stored faces, whose rows are face rows
    products = _products(corpus)
    assert sum(_has_degenerate_face(c) for p in products for c in p.cells.values()) >= 600
    assert sum(_has_degenerate_face(c) and c.dim == 4 for p in products for c in p.cells.values()) >= 100
    for p in products:
        assert _verdict(_validate_set_by_eval, p.cells) is None
        assert _verdict(SimplicialSet, p.cells) is None
    found = {"valid": 0, "identity": 0, "at degenerate": 0, "at degenerate 4-cell": 0, "rank": 0}
    products = [p for p in products if p.dim >= 1]
    for _ in range(1500):
        cells = _mutate_presentation(rng, rng.choice(products))
        want = _verdict(_validate_set_by_eval, cells)
        assert _verdict(SimplicialSet, cells) == want
        if want is None:
            found["valid"] += 1
        elif want.startswith("face identities"):
            found["identity"] += 1
            cid = int(want.split()[5].rstrip(":"))
            found["at degenerate"] += _has_degenerate_face(cells[cid])
            found["at degenerate 4-cell"] += _has_degenerate_face(cells[cid]) and cells[cid].dim == 4
        else:
            found["rank"] += 1
    assert found["valid"] >= 400 and found["identity"] >= 700, found
    assert found["at degenerate"] >= 180 and found["at degenerate 4-cell"] >= 30, found
    assert found["rank"] >= 100, found


def _products(corpus):
    # x x y over the seed-0 members with at most 8 cells, each unordered
    # pair once, up to dimension 4
    members = _small_members(corpus, 8)
    return [
        product(x, y).space
        for k, x in enumerate(members)
        for y in members[k:]
        if x.dim + y.dim <= 4
    ]


def _has_degenerate_face(cell):
    return any(not op.is_identity for _, op in cell.faces)


def _uninterned(cells):
    # the same table with every stored operator rebuilt: equal, not the same
    return {
        cid: Cell(cell.dim, tuple((t, Operator(op.dst, op.values)) for t, op in cell.faces))
        for cid, cell in cells.items()
    }


def test_uninterned_identities_validate_as_interned(corpus):
    # a face stored under an identity equal to the interned one but not it
    # misses the shortcut and goes through every check: the same verdict
    # and the same message, as built and with one face changed
    rng = random.Random(20261020)
    spaces = [x for x in _small_members(corpus, 20) if x.dim >= 1]
    spaces += _nerves(corpus)[:20] + [p for p in _products(corpus)[::4] if p.dim >= 1]
    missed = 0
    for x in spaces:
        cells = _uninterned(x.cells)
        missed += sum(op == identity(op.src) and op is not identity(op.src)
                      for c in cells.values() for _, op in c.faces)
        assert _verdict(SimplicialSet, cells) is None
    assert missed >= 4000
    verdicts = []
    for _ in range(1500):
        cells = _mutate_presentation(rng, rng.choice(spaces))
        want = _verdict(SimplicialSet, cells)
        assert _verdict(SimplicialSet, _uninterned(cells)) == want
        verdicts.append(want)
    faces = [v for v in verdicts if v and v.startswith("face identities")]
    ranks = [v for v in verdicts if v and not v.startswith("face identities")]
    assert len(faces) >= 600 and len(ranks) >= 100 and verdicts.count(None) >= 400


def _failing_pairs(cells, cid):
    # every pair (i, j), i < j, whose identity fails at the cell, by eval
    cell = cells[cid]
    d = cell.dim
    return [
        (i, j)
        for j in range(1, d + 1)
        for i in range(j)
        if _eval_by_factoring(cells, Simplex(*cell.faces[j]), make_face(i, d - 1))
        != _eval_by_factoring(cells, Simplex(*cell.faces[i]), make_face(j - 1, d - 1))
    ]


def test_first_failing_pair_is_named_j_then_i(corpus):
    # two faces of one cell of dimension >= 3 changed to other cells of
    # their rank, so that several identities fail: the message names the
    # first pair in j-then-i order, as the reference does, also where the
    # first pair in i-then-j order is another one
    rng = random.Random(20261021)
    spaces = [n for n in _nerves(corpus) if n.dim >= 3]
    apart = 0
    for _ in range(1500):
        x = rng.choice(spaces)
        cells = dict(x.cells)
        cid = rng.choice([c for c in sorted(cells) if cells[c].dim >= 3])
        d, faces = cells[cid]
        faces = list(faces)
        below = [c for c in sorted(cells) if cells[c].dim == d - 1]
        for k in rng.sample(range(d + 1), 2):
            faces[k] = (rng.choice(below), identity(d - 1))
        cells[cid] = Cell(d, tuple(faces))
        want = _verdict(_validate_set_by_eval, cells)
        assert _verdict(SimplicialSet, cells) == want
        if want is None or not want.startswith(f"face identities fail at cell {cid}:"):
            continue
        failing = _failing_pairs(cells, cid)
        i, j = min(failing, key=lambda p: (p[1], p[0]))
        assert want.split(": ")[1].startswith(f"faces ({i},{j}) give")
        apart += min(failing) != (i, j)
    assert apart >= 25, apart


def test_identity_getters_select_each_pair_once():
    # over rows of length d laid end to end, entry i of row j and entry j-1
    # of row i, for 0 <= i < j <= d in j-then-i order
    for d in range(2, 9):
        labels = [(row, entry) for row in range(d + 1) for entry in range(d)]
        later, earlier = _identity_getters(d)
        pairs = [(i, j) for j in range(1, d + 1) for i in range(j)]
        assert later(labels) == tuple((j, i) for i, j in pairs)
        assert earlier(labels) == tuple((i, j - 1) for i, j in pairs)


def _maps(x):
    # the identity, maps representing cells and degenerate simplices, and a
    # quotient projection: assignments with identity and degenerate images
    yield identity_map(x)
    for cid in sorted(x.cells)[:4]:
        s = x.simplex(cid)
        yield simplex_map(x, s)
        yield simplex_map(x, x.eval(s, make_degen(0, s.degree)))
    if len(x.cells) > 1:
        yield collapse_subcomplex(x, x.cell_ids(0)[:2]).projection


def test_injectivity_matches_simplex_walk(corpus):
    # identities, cell and degenerate-simplex maps, collapse projections,
    # maps to the point (the circle's sends its edge to a degenerate
    # simplex of the vertex's image: distinct images, a shared cell),
    # inclusions of the subcomplexes generated by the first cells, and both
    # legs of the pushout gluing a member to itself along each inclusion
    maps = []
    for x in _small_members(corpus, 20) + [circle()]:
        maps += _maps(x)
        maps.append(to_point(x))
        for k in (1, 2, 3):
            _, incl = generate(x, sorted(x.cells)[:k])
            po = pushout(incl, incl)
            maps += [incl, po.left, po.right]
    verdicts = [f.is_degreewise_injective() for f in maps]
    assert verdicts == [injective_by_simplices(f) for f in maps]
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 50


def _nerve_maps(corpus):
    # the nerve maps a cone's cylinder builds: ends, the cone map, the
    # pushout legs; and barratt maps of cell inclusions
    for p, apex, cyl, v, phi in _cylinder_posets():
        np_, ncyl, nv = nerve(p), nerve(cyl), nerve(v.poset)
        for level in (0, 1):
            yield nerve_map(cylinder_end(p, cyl, level), np_, ncyl)
        yield nerve_map(phi, np_, nerve(apex))
        yield nerve_map(v.leg_ambient, ncyl, nv)
        yield nerve_map(v.leg_other, nerve(apex), nv)
    for x in _small_members(corpus, 12):
        for k in (1, 2):
            _, incl = generate(x, sorted(x.cells)[-k:])
            yield barratt_map(incl)


def test_map_validation_matches_eval_reference(corpus):
    rng = random.Random(20200902)
    maps = [f for x in _small_members(corpus, 20) for f in _maps(x)]
    assert len(maps) >= 100
    nerve_maps = list(_nerve_maps(corpus))
    assert len(nerve_maps) >= 100
    maps += nerve_maps
    for f in maps:
        assert _verdict(_validate_map_by_eval, f.source, f.target, f.assignment) is None
        assert _verdict(SimplicialMap, f.source, f.target, f.assignment) is None
    verdicts = []
    for _ in range(1500):
        f = rng.choice(maps)
        asg = dict(f.assignment)
        cid = rng.choice(sorted(asg))
        q = f.source.cells[cid].dim
        if rng.random() < 0.1:
            q += 1  # the wrong degree
        asg[cid] = rng.choice(list(f.target.simplices(q)))
        want = _verdict(_validate_map_by_eval, f.source, f.target, asg)
        assert _verdict(SimplicialMap, f.source, f.target, asg) == want
        verdicts.append(want)
    # an image read off the assignment prints as a Simplex, as eval's does
    faces = [v for v in verdicts if v and v.startswith("assignment not simplicial")]
    assert all(v.count("Simplex(cell=") == 2 for v in faces)
    assert len(faces) >= 400 and verdicts.count(None) >= 400
    # one image of a nerve map changed to a cell: where the images of its
    # faces are cells too, the whole row of faces is compared at once
    row_wise = {"pass": 0, "fail": 0}
    for f in nerve_maps:
        if all(not s.is_degenerate for s in f.assignment.values()):
            row_wise["pass"] += 1
    for _ in range(1500):
        f = rng.choice(nerve_maps)
        asg = dict(f.assignment)
        cid = rng.choice(sorted(asg))
        q = f.source.cells[cid].dim
        asg[cid] = f.target.simplex(rng.choice(f.target.cell_ids(q) or [f.assignment[cid].cell]))
        if asg[cid].degree != q:
            continue
        want = _verdict(_validate_map_by_eval, f.source, f.target, asg)
        assert _verdict(SimplicialMap, f.source, f.target, asg) == want
        if q and all(asg[t].degen.is_identity for t, _ in f.source.cells[cid].faces):
            row_wise["pass" if want is None else "fail"] += 1
    assert row_wise["pass"] >= 100 and row_wise["fail"] >= 300, row_wise



def _shuffled(rng, cells):
    # the same cells under the same ids, in a random table order
    ids = list(cells)
    rng.shuffle(ids)
    return {cid: cells[cid] for cid in ids}


def _cut_short(rng, cells):
    # one cell of positive dimension with its last stored face dropped
    cells = dict(cells)
    cid = rng.choice([c for c in sorted(cells) if cells[c].dim >= 1])
    cells[cid] = Cell(cells[cid].dim, cells[cid].faces[:-1])
    return cells


def test_validation_names_the_first_failure_in_any_table_order(corpus):
    # a walk checks each cell's own faces where it stands, and a cell's
    # identities there only when all its faces lie under the interned
    # identity, deferring the rest; a cell's faces may rest on cells later
    # in the table.  With the table in a random order, one or two faces
    # changed and at times one face count cut short, both checks name the
    # reference's first failure: every cell's faces come before any
    # cell's identities
    rng = random.Random(20261021)
    spaces = [x for x in _small_members(corpus, 20) if x.dim >= 2] + _nerves(corpus)[:30]
    spaces += [p for p in _products(corpus)[::3] if p.dim >= 2]
    kinds = {"valid": 0, "identity": 0, "count": 0, "other": 0}
    for _ in range(1500):
        cells = _mutate_presentation(rng, rng.choice(spaces))
        if rng.random() < 0.5:
            cells = _mutate_presentation(rng, SimpleNamespace(cells=cells))
        if rng.random() < 0.2:
            cells = _cut_short(rng, cells)
        cells = _shuffled(rng, cells)
        want = _verdict(_validate_set_by_eval, cells)
        assert _verdict(SimplicialSet, cells) == want
        if want is None:
            kinds["valid"] += 1
        elif want.startswith("face identities"):
            kinds["identity"] += 1
        elif " stores " in want:
            kinds["count"] += 1
        else:
            kinds["other"] += 1
    assert kinds["valid"] >= 100 and kinds["identity"] >= 500, kinds
    assert kinds["count"] >= 150 and kinds["other"] >= 100, kinds
    # maps out of a source in a random table order, one or two images changed
    maps = [f for x in _small_members(corpus, 20) for f in _maps(x)] + list(_nerve_maps(corpus))
    found = {"valid": 0, "faces": 0, "images": 0}
    for _ in range(1500):
        f = rng.choice(maps)
        source = SimplicialSet(_shuffled(rng, f.source.cells))
        asg = dict(f.assignment)
        for _ in range(rng.choice((1, 2))):
            cid = rng.choice(sorted(asg))
            q = source.cells[cid].dim + (rng.random() < 0.1)
            asg[cid] = rng.choice(list(f.target.simplices(q)))
        want = _verdict(_validate_map_by_eval, source, f.target, asg)
        assert _verdict(SimplicialMap, source, f.target, asg) == want
        if want is None:
            found["valid"] += 1
        elif want.startswith("assignment not simplicial"):
            found["faces"] += 1
        else:
            found["images"] += 1
    assert found["valid"] >= 100 and found["faces"] >= 500 and found["images"] >= 80, found

def test_face_row_matches_eval(corpus):
    # every simplex of degree <= dim+1 of the seed-0 members with <= 40
    # cells and of the small quotients: the memoized row holds the faces
    # eval gives one at a time, degree 0 has the empty row, and a second
    # call returns the same tuple
    from ssetforge.verify import _small_quotients

    spaces = _small_members(corpus, 40) + _small_quotients()
    assert len(spaces) >= 100
    rows = 0
    for x in spaces:
        for q in range(x.dim + 2):
            for s in x.simplices(q):
                row = x.face_row(s)
                assert len(row) == (q + 1 if q else 0)
                for i, face in enumerate(row):
                    assert face == x.eval(s, make_face(i, q))
                    assert type(face) is Simplex
                assert x.face_row(s) is row
                rows += 1
    assert rows >= 6_000


def test_warm_face_rows_keep_map_validation_errors(corpus):
    # a product projection is validated first, which fills its target's
    # row memo; a map into the same target with one degenerate image
    # replaced by another image of the projection, whose row is in the
    # memo, fails with the same text as against a fresh copy of the target
    from ssetforge.colimits import product

    members = _small_members(corpus, 8)
    rng = random.Random(20261019)
    failed = 0
    for x in members:
        for y in members[:6]:
            f = product(x, y).first
            degenerate = sorted(
                {(c, s) for c, s in f.assignment.items() if s.is_degenerate}
            )
            for cid, s in rng.sample(degenerate, min(4, len(degenerate))):
                same = [t for c, t in degenerate if t.degree == s.degree and t != s]
                if not same:
                    continue
                asg = dict(f.assignment)
                asg[cid] = rng.choice(same)
                assert asg[cid] in f.target._row_cache
                fresh = SimplicialSet(f.target.cells)
                want = _verdict(SimplicialMap, f.source, fresh, asg)
                assert _verdict(SimplicialMap, f.source, f.target, asg) == want
                assert want == _verdict(_validate_map_by_eval, f.source, fresh, asg)
                failed += want is not None
    assert failed >= 200
