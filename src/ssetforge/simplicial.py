"""Finite simplicial sets presented by their non-degenerate simplices.

A simplicial set is a table of cells.  A cell of dimension d >= 1 stores
d+1 codimension-1 faces, each as a pair (target cell, degeneracy): the
normal form of that face under the unique face-after-degeneracy
factorization of operators.  A general simplex is a pair
(cell, degeneracy operator), and all operator actions are computed by
factoring through the stored tables, so the presentation is closed under
the whole simplex category once the face-of-face identities hold.

Where the answer is already stored, it is read off the table instead of
factored: a degeneracy of a simplex is the same cell under the composite
degeneracy, a face of a cell is its stored face or the memoized face of
one, the faces of a face stored with an identity are that face's own
stored faces, and the vertices of a cell are read through its last and
first stored faces.  ``vertex_rows`` fills the rows of all cells in one
pass, lowest dimension first, on its first call and keeps them: a last
face stored under the identity lends its row as it is, and the last
vertex is the last entry of face 0's row.  Every reader of vertex rows
reads that one table.
Validation checks the same identities on every cell either way; only the
route to each side of a check is shorter.

A simplex's face row, its faces d_0 .. d_q, is evaluated by ``face_row``
once per space and kept: a space is immutable, so the row never changes.
Every site that needs a whole row reads it there, a product for its
factors' simplices, a congruence merge for the forms it sets, and both
validations below.

Operators are interned, so the rank checks pass a face stored under the
identity object at once when its cell has the rank below; any other
face, an equal identity that is not interned included, takes every
check.  The face identities d_i d_j = d_{j-1} d_i of a cell are compared
a whole cell at a time: its d+1 face rows are laid end to end, where a
face stored under the identity gives its cell's stored faces and any
other face its face row, and two getters built once per dimension take
entry i of row j and entry j-1 of row i for every i < j, so one tuple
comparison decides the cell.  Where a map sends a cell to a
cell, its stored faces are compared with the images of the cell's faces,
and where it sends a cell to a degenerate simplex, with that
simplex's faces, evaluated once per target space, shared by every map
into it and by the set's own validation.  On a mismatch both name the
first failing pair.

Both validations walk their table once, in its order, reading the
identities and getters once per run of cells of one dimension.  A cell
whose faces all lie under the interned identity (every nerve cell) is
checked whole in the walk; every other cell, and every one that fails
there, is deferred to a second loop over those cells alone, run once
the walk has checked every cell's own faces or image.  So the first
failure named is the one a check of every cell's faces before any
cell's identities names.  On one seed-7 pass of each benchmark
workload the walk settles 80% to 96% of the cells of dimension >= 2
and 93% to 100% of the map cells of positive dimension.  A table that
defers every such cell, as Delta[n]/Delta[n-1] does, costs what checking
every cell's faces and then every cell's identities costs.
"""

from __future__ import annotations

from functools import lru_cache, partial
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from .operators import (
    Operator,
    all_degeneracies,
    all_faces,
    compose,
    ez_factor,
    face_split,
    identity,
    make_face,
)


class Simplex(NamedTuple):
    """A simplex in EZ normal form: a cell and a degeneracy onto its rank.

    It is a tuple, so its hash is ``hash((cell, degen))`` and it compares
    equal to the plain pair ``(cell, degen)``.
    """

    cell: int
    degen: Operator

    @property
    def degree(self) -> int:
        return self.degen.src

    @property
    def is_degenerate(self) -> bool:
        return not self.degen.is_identity


# Simplex from a (cell, degen) pair in C, skipping the NamedTuple's
# Python-level __new__; for the hot sites below (the operator action, the
# simplex enumeration and validation), which build most simplices
_simplex = partial(tuple.__new__, Simplex)


@lru_cache(maxsize=None)
def _identity_getters(d: int) -> tuple[itemgetter, itemgetter]:
    """For the d+1 face rows of a d-cell laid end to end, d entries each:
    getters of entry i of row j and of entry j-1 of row i, for 0 <= i < j
    <= d in j-then-i order.  The identity d_i d_j = d_{j-1} d_i holds for
    every pair exactly when the two getters give equal tuples."""
    pairs = [(i, j) for j in range(1, d + 1) for i in range(j)]
    return (
        itemgetter(*[j * d + i for i, j in pairs]),
        itemgetter(*[i * d + j - 1 for i, j in pairs]),
    )


class Cell(NamedTuple):
    """A cell's dimension and its stored codimension-1 faces; a tuple, so
    built in C and hashed as ``hash((dim, faces))``."""

    dim: int
    faces: tuple[tuple[int, Operator], ...]


class SimplicialSet:
    """Cell table with validated face-of-face identities.

    ``cells`` maps integer ids to Cell records.  ``labels`` maps ids to
    construction data, is not part of the presentation, and is filled
    only where a program path reads it:

    - ``subdivision.sd``: each cell's carrier and chain, read by
      ``b_nat``, ``last_vertex``, ``sd_map`` and ``verify._corpus_sd``;
    - ``standard_simplex``: each cell's face operator, read by
      ``simplex_map`` and ``cylinders.representing_sharp``.

    Every other constructor passes none: a nerve's chains are its vertex
    rows, a quotient's classes are the fibres of its projection, and a
    product's, pushout's or subcomplex's cells are named by its maps.

    Both tables are kept as given, not copied: a caller hands over tables
    it no longer changes, as every constructor does with the tables it
    has just built.
    """

    def __init__(self, cells: dict[int, Cell], labels: dict[int, object] | None = None):
        self.cells = cells
        self.labels = {} if labels is None else labels
        self._face_cache: dict[tuple[int, Operator], Simplex] = {}
        self._vertex_cache: dict[int, tuple[int, ...]] = {}
        self._row_cache: dict[Simplex, tuple[Simplex, ...]] = {}
        self._order: tuple[int, ...] | None = None
        self._ids: tuple[int, ...] | None = None
        self._validate()

    # -- validation -----------------------------------------------------

    def _validate(self) -> None:
        """Check every cell in one walk over the table, in its order.

        The walk checks each cell's id, dimension and face count, and the
        target and ranks of each face, raising at the first failure.  A
        cell of dimension d >= 2 whose faces all lie under the interned
        identity on cells of dimension d-1 has its face identities
        checked in the walk too, on its faces' stored faces.  Every other
        cell of dimension d >= 2, and every one that fails there, is
        deferred: its faces may rest on cells the walk has not reached.
        The identities of the deferred cells are checked after the walk,
        in table order, once every cell's faces are known to be sound.  A
        table that fails the walk fails it at the first cell that fails
        its own checks, and one that passes fails, if at all, at the first
        deferred cell that fails its identities: the first failure in
        table order, the same as checking every cell's faces before any
        cell's identities.
        """
        cells = self.cells
        deferred: list[int] = []
        dim = None
        for cid, cell in cells.items():
            if not isinstance(cid, int):
                raise ValueError(f"cell ids must be integers, got {cid!r}")
            d, faces = cell
            if d < 0:
                raise ValueError(f"cell {cid} has negative dimension")
            if len(faces) != (d + 1 if d else 0):
                raise ValueError(f"cell {cid} of dimension {d} stores {len(faces)} faces")
            if not d:
                continue
            if d != dim:
                # read once per run of cells of one dimension
                dim, rank, ident = d, d - 1, identity(d - 1)
                later, earlier = _identity_getters(d)
                size = d * d + d
            # operators are interned, so a face stored under the identity
            # object on a cell of dimension d-1 passes every check below;
            # its faces are that cell's stored faces, d+1 rows of d when
            # each such cell stores its own faces soundly
            flat: list = []
            for target, op in faces:
                below = cells.get(target)
                if op is not ident or below is None or below[0] != rank:
                    break
                flat += below[1]
            else:
                if d > 1 and (len(flat) != size or later(flat) != earlier(flat)):
                    deferred.append(cid)
                continue
            for i, (target, op) in enumerate(faces):
                below = cells.get(target)
                if op is ident and below is not None and below[0] == rank:
                    continue
                if below is None:
                    raise ValueError(f"cell {cid} face {i} targets missing cell {target}")
                if not op.is_degeneracy:
                    raise ValueError(f"cell {cid} face {i} operator {op} is not surjective")
                if op.src != rank or op.dst != below.dim:
                    raise ValueError(f"cell {cid} face {i} has mismatched ranks")
            if d > 1:
                deferred.append(cid)
        # The walk checked every cell's faces, so a face (t, sigma) stored
        # under the identity has t of dimension d-1, and its k-th face is
        # t's stored face k: what eval returns, read off the table.  Any
        # other face's faces are its memoized face row; an equal but
        # uninterned identity gives the same row by eval.
        face_row = self.face_row
        for cid in deferred:
            d, faces = cells[cid]
            ident = identity(d - 1)
            flat = []
            for t, sigma in faces:
                flat += cells[t][1] if sigma is ident else face_row(_simplex((t, sigma)))
            later, earlier = _identity_getters(d)
            if later(flat) != earlier(flat):
                # name the first failing pair, j then i
                for j in range(1, d + 1):
                    for i in range(j):
                        a, b = flat[j * d + i], flat[i * d + j - 1]
                        if a != b:
                            raise ValueError(
                                f"face identities fail at cell {cid}: "
                                f"faces ({i},{j}) give {_simplex(a)} vs {_simplex(b)}"
                            )

    # -- basic structure -------------------------------------------------

    @property
    def dim(self) -> int:
        return max((c.dim for c in self.cells.values()), default=-1)

    def cell_ids(self, dim: int) -> list[int]:
        return sorted(cid for cid, c in self.cells.items() if c.dim == dim)

    def cell_order(self) -> tuple[int, ...]:
        """The cell ids in (dimension, id) order, sorted once."""
        if self._order is None:
            cells = self.cells
            self._order = tuple(sorted(cells, key=lambda c: (cells[c].dim, c)))
        return self._order

    def simplex(self, cid: int) -> Simplex:
        return _simplex((cid, identity(self.cells[cid].dim)))

    def simplices(self, degree: int) -> Iterator[Simplex]:
        """The simplices of the given degree, by cell id, then degeneracy."""
        if self._ids is None:
            self._ids = tuple(sorted(self.cells))
        for cid in self._ids:
            d = self.cells[cid].dim
            if d <= degree:
                for op in all_degeneracies(degree, d):
                    yield _simplex((cid, op))

    # -- operator action -------------------------------------------------

    def _cell_face(self, cid: int, mu: Operator) -> Simplex:
        # mu must be a face operator into [dim cid]
        if mu.is_identity:
            return _simplex((cid, mu))
        if mu.src == mu.dst - 1:
            # a codimension-1 face is stored
            return _simplex(self.cells[cid].faces[face_split(mu)[0]])
        key = (cid, mu)
        hit = self._face_cache.get(key)
        if hit is not None:
            return hit
        i, rest = face_split(mu)
        target, sigma = self.cells[cid].faces[i]
        out = self.eval(_simplex((target, sigma)), rest)
        self._face_cache[key] = out
        return out

    def eval(self, s: Simplex, op: Operator) -> Simplex:
        """The simplex s.op, renormalized; op must land in [degree of s].

        An identity op returns s itself, as a Simplex.  That is what the
        general path returns for s in EZ normal form (a cell and a
        degeneracy onto its rank), which every simplex of a validated
        space or map is: face tables and map assignments are checked to
        store degeneracies, and every result of eval is normal.

        When the composite of op and the degeneracy of s is itself a
        degeneracy (op is one, or s is degenerate and op keeps the
        composite surjective), the result is the cell of s under that
        composite.  That is again what the general path returns: the EZ
        factorization of a surjection is (identity, itself), the identity
        face of a cell is the cell, and the composite with the identity
        is unchanged.

        A face operator on a cell under the identity gives that face of
        the cell, ``_cell_face``, read off the table or its cache.  That
        too is the general path's result: the composite with the identity
        is op, a face factors as (itself, identity), and the identity
        composed with the face's degeneracy leaves it as it is.  Only
        other operators factor through the face tables.
        """
        cell, degen = s
        if op.dst != degen.src:
            raise ValueError(f"operator {op} does not land in [{degen.src}]")
        if op.is_identity:
            return s if type(s) is Simplex else _simplex(s)
        if degen.is_identity and op.is_face:
            return self._cell_face(cell, op)
        both = compose(op, degen)
        if both.is_degeneracy:
            return _simplex((cell, both))
        mu, tau = ez_factor(both)
        z_cell, z_degen = self._cell_face(cell, mu)
        return _simplex((z_cell, compose(tau, z_degen)))

    def face_row(self, s: Simplex) -> tuple[Simplex, ...]:
        """The faces (s.d_0, ..., s.d_q) of a simplex of degree q, evaluated
        once per space and kept; () in degree 0.  A space is immutable, so
        the row never changes, and only simplices asked for are kept."""
        got = self._row_cache.get(s)
        if got is None:
            q = s[1].src
            ev = self.eval
            got = tuple([ev(s, make_face(i, q)) for i in range(q + 1)]) if q else ()
            self._row_cache[s] = got
        return got

    def vertex_rows(self) -> dict[int, tuple[int, ...]]:
        """The vertex cells of every cell, in order, by cell id.

        The first call fills the table in one pass over ``cell_order()``:
        a face has a lower dimension than its cell, so its row is ready.
        Vertices 0..d-1 are those of the last face: a face stored under
        the identity gives its cell's row as it is, and any other reads
        that row through its degeneracy.  Vertex d is the last vertex of
        face 0, since its degeneracy is a surjection onto its cell's rank
        and so ends at that rank.  A reader that stops early
        (``is_nonsingular``, the oracle's search for a singular cell)
        still pays for every row, once per space.  The table is the
        space's own, read by every reader of vertex rows, and is not to
        be changed.
        """
        rows = self._vertex_cache
        if not rows:
            cells = self.cells
            for c in self.cell_order():
                faces = cells[c][1]
                if faces:
                    (t, sigma), (t0, _) = faces[-1], faces[0]
                    below = rows[t]
                    if not sigma.is_identity:
                        below = map(below.__getitem__, sigma.values)
                    rows[c] = (*below, rows[t0][-1])
                else:
                    rows[c] = (c,)
        return rows

    # -- predicates --------------------------------------------------------

    def is_nonsingular(self) -> bool:
        return all(len(set(vs)) == len(vs) for vs in self.vertex_rows().values())

    def same_presentation(self, other: "SimplicialSet") -> bool:
        return self.cells == other.cells


class SimplicialMap:
    """A map of simplicial sets, stored on cells, validated on faces.

    The assignment is kept as given, not copied: a caller hands over a
    table it no longer changes.
    """

    def __init__(
        self,
        source: SimplicialSet,
        target: SimplicialSet,
        assignment: dict[int, Simplex],
    ):
        self.source = source
        self.target = target
        self.assignment = assignment
        self._validate()

    def _validate(self) -> None:
        """Check every cell in one walk over the source table, in its order.

        The walk checks that each cell is sent to a simplex of its degree
        in normal form, raising at the first failure.  Where a cell's
        faces all lie under the interned identity, the walk also compares
        its image's faces with its faces' images, read off the assignment
        as they stand.  Every other cell of positive dimension, and every
        one whose comparison fails, is deferred with its image's faces: a
        face's image may not have been checked yet.  The deferred cells
        are compared after the walk, in table order, once every image is
        known to be sound, so the first failure named is the first in
        table order, the same as checking every image before comparing
        any faces.
        """
        assignment, target = self.assignment, self.target
        source_cells, target_cells = self.source.cells, target.cells
        # Where an image or a face is a cell under the identity, its face
        # or its image is read off the target's table or the assignment:
        # the same Simplex eval returns.  A degenerate image's faces are
        # the target's memoized face row, shared by every map into it, and
        # a degenerate face's image is its cell's image under the composite
        # degeneracy, which is what eval returns for it.
        face_row, image_of = target.face_row, assignment.get
        deferred: list[tuple[int, tuple]] = []
        dim = None
        for cid, cell in source_cells.items():
            s = image_of(cid)
            if s is None:
                raise ValueError(f"no assignment for cell {cid}")
            image = target_cells.get(s.cell)
            if image is None:
                raise ValueError(f"cell {cid} sent to missing cell {s.cell}")
            d, degen = cell[0], s.degen
            if d != dim:
                # read once per run of cells of one dimension
                dim, top, ident = d, identity(d), identity(d - 1) if d else None
            if degen is top:
                # the interned identity of rank d: sent onto a cell
                if image[0] != d:
                    raise ValueError(f"cell {cid} sent to simplex of wrong degree")
                got = image[1]
            else:
                if degen.src != d or degen.dst != image[0]:
                    raise ValueError(f"cell {cid} sent to simplex of wrong degree")
                if not degen.is_degeneracy:
                    raise ValueError(f"cell {cid} sent to {s}, which is not in normal form")
                if not d:
                    continue
                got = face_row(s)
            for (t, sigma), face in zip(cell[1], got):
                # a face off the identity, or one whose image is still to
                # be checked and is not the one expected, is deferred
                if sigma is not ident or image_of(t) != face:
                    deferred.append((cid, got))
                    break
        for cid, got in deferred:
            cell = source_cells[cid]
            want = tuple([
                assignment[t] if sigma.is_identity
                else _simplex((assignment[t][0], compose(sigma, assignment[t][1])))
                for t, sigma in cell.faces
            ])
            if got == want:
                continue
            # name the first failing face
            for i, (a, b) in enumerate(zip(got, want)):
                if a != b:
                    raise ValueError(
                        f"assignment not simplicial at cell {cid}, face {i}: "
                        f"{_simplex(a)} vs {_simplex(b)}"
                    )

    def apply(self, s: Simplex) -> Simplex:
        return self.target.eval(self.assignment[s.cell], s.degen)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimplicialMap)
            and self.source is other.source
            and self.target is other.target
            and self.assignment == other.assignment
        )

    def __hash__(self):  # pragma: no cover - maps are not meant to be hashed
        return id(self)

    def is_degreewise_injective(self) -> bool:
        """Read off the cells: by Eilenberg-Zilber a map is injective in
        every degree exactly when it sends cells to distinct cells.  By
        the face lemma of the ``cylinders`` module docstring, cells with
        distinct image cells have no degenerate image on a validated map,
        so distinct image cells are enough."""
        return len({s.cell for s in self.assignment.values()}) == len(self.assignment)

    def is_isomorphism(self) -> bool:
        """A bijection on cells: as many cells on each side, sent to
        distinct cells, none degenerately by the same face lemma."""
        return len(self.assignment) == len(self.target.cells) and self.is_degreewise_injective()


def identity_map(space: SimplicialSet) -> SimplicialMap:
    return SimplicialMap(space, space, {cid: space.simplex(cid) for cid in space.cells})


def compose_maps(first: SimplicialMap, second: SimplicialMap) -> SimplicialMap:
    if first.target is not second.source and not first.target.same_presentation(second.source):
        raise ValueError("maps do not chain")
    asg = {cid: second.apply(s) for cid, s in first.assignment.items()}
    return SimplicialMap(first.source, second.target, asg)


# -- standard complexes and subcomplexes ---------------------------------


def standard_simplex(n: int) -> SimplicialSet:
    """The n-simplex; cells are labeled by their face operators into [n],
    the interned ones of ``all_faces``."""
    faces_of = all_faces(n)
    ids = {mu.values: cid for cid, mu in enumerate(faces_of)}
    cells: dict[int, Cell] = {}
    for vals, cid in ids.items():
        d = len(vals) - 1
        faces = tuple(
            (ids[vals[:i] + vals[i + 1 :]], identity(d - 1)) for i in range(d + 1)
        ) if d else ()
        cells[cid] = Cell(d, faces)
    return SimplicialSet(cells, dict(enumerate(faces_of)))


def generated_cells(space: SimplicialSet, seeds: Iterable[int]) -> set[int]:
    """Ids of the cells of the smallest subcomplex containing the seed cells."""
    keep: set[int] = set()
    stack = list(seeds)
    while stack:
        cid = stack.pop()
        if cid in keep:
            continue
        try:
            faces = space.cells[cid].faces
        except KeyError:
            raise ValueError(f"unknown cell {cid}") from None
        keep.add(cid)
        stack.extend(t for t, _ in faces)
    return keep


def generate(space: SimplicialSet, seeds: Iterable[int]) -> tuple[SimplicialSet, SimplicialMap]:
    """Smallest subcomplex containing the seed cells, with its inclusion."""
    keep = generated_cells(space, seeds)
    sub = SimplicialSet({cid: space.cells[cid] for cid in sorted(keep)})
    incl = SimplicialMap(sub, space, {cid: space.simplex(cid) for cid in sub.cells})
    return sub, incl


def boundary(n: int) -> SimplicialSet:
    delta = standard_simplex(n)
    top = delta.cell_ids(n)[0]
    proper = [cid for cid in delta.cells if cid != top]
    return generate(delta, proper)[0]


def simplex_map(target: SimplicialSet, s: Simplex) -> SimplicialMap:
    """The map out of the standard simplex representing the simplex s."""
    delta = standard_simplex(s.degree)
    asg = {cid: target.eval(s, delta.labels[cid]) for cid in delta.cells}
    return SimplicialMap(delta, target, asg)


def representing_map(space: SimplicialSet, cid: int) -> SimplicialMap:
    return simplex_map(space, space.simplex(cid))
