"""Congruences, quotients, pushouts, products, and regularity.

A congruence is an operator-closed equivalence relation on the
simplices of X.  By Eilenberg-Zilber every simplex of a quotient is a
unique degeneracy of a unique non-degenerate simplex, so the class of a
simplex (c, sigma) is the class of the cell c degenerated by sigma, and
the relation is fixed by the classes of the cells alone: each is a
degeneracy of a first cell, the first cell in (dimension, id) order of a
class with no degenerate member.  The cells of the quotient are the
classes of the first cells.

So a congruence is a table of cell normal forms, not a union-find over
simplices.  A cell gets an entry only when a merge kills it, that is,
when it stops being a first cell; the entry is a simplex of its class on
an earlier cell.  Degenerate simplices never enter the table, closure
under degeneracies holds by construction, and a merge kills at most
|cells| cells, each with one step that queues its stored faces against
the faces of its new form.  The table of killed forms is the one way a
congruence is read: the quotient, the forced moves and the oracle all
read it, the quotient numbering the cells it does not hold in
(dimension, id) order, and the simplices of X are never enumerated.

Pushouts are attached, not quotiented.  Every pushout the program
builds has a degreewise injective first leg f: A -> X, the nerve of a
Dwyer embedding or of a full subposet's inclusion, or an edge of a
triangle.  By Eilenberg-Zilber, f is injective exactly when it sends
the cells of A to distinct cells (which is how
``SimplicialMap.is_degreewise_injective`` decides it), and then the
non-degenerate simplices of X u_A Y are those of Y together with the
cells of X outside f(A); a cell f(a) of X becomes g(a).  So the cell
table of the pushout and both legs are written directly, with no
disjoint union, congruence or quotient.  No map out of a pushout is
built here: every one the program builds lands in a nerve and is fixed
by its vertices (``cylinders.pushout_into_nerve``).

Regularity is decided in one bottom-up pass over the cell table,
without building a pushout.  For a d-cell y with Z the subcomplex
generated by its last face, the canonical map out of the pushout of the
d-simplex and Z along the last face is injective iff y sends every face
of [d] containing the vertex d to a non-degenerate simplex outside Z,
and no two of them to the same one.  By Eilenberg-Zilber, injectivity is
injectivity on non-degenerate simplices together with non-degenerate
images, and the non-degenerate simplices of that pushout are the cells
of Z and those faces of [d].  A face of [d] containing d other than [d]
lies in a face omitting some i < d, and there contains the last vertex
again; so the cells y.mu are y together with those its non-last stored
faces reach the same way, and each cell's closure is the cell together
with the closures of its stored faces.  Both are kept as bitmasks over
positions in (dimension, id) order, built bottom-up, so each cell costs
two integer operations per stored face, and a d-cell passes when the
mask of its cells y.mu has 2^d bits and misses the closure of its last
face.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable

from .operators import (
    Operator,
    compose,
    degeneracy_from_repeats,
    identity,
    section,
    separating_section,
)
from .simplicial import (
    Cell,
    Simplex,
    SimplicialMap,
    SimplicialSet,
    _simplex,
    generated_cells,
)


class Congruence:
    """An operator-closed equivalence relation, kept as the forms of its killed cells.

    ``_form[c]`` is set only for a cell c that is no longer the first cell
    of a cell class.  It holds a simplex of X in c's class on a cell that
    comes before c in (dimension, id) order, so following forms ends at a
    first cell, and ``_resolve`` follows them, rewriting each form on the
    way as a degeneracy of that first cell.  The class of a simplex
    (c, sigma) is the normal form of c degenerated by sigma: ``find``
    returns it, and two simplices are related exactly when ``find`` agrees.

    ``merge`` relates a pair and closes the relation.  It pops pairs of
    equal degree and compares their classes (f, alpha) and (g, beta):

    - alpha = beta: f and g are first cells of one dimension.  The later
      one in (dimension, id) order gets the earlier one as its form, and
      their stored faces are queued pairwise.
    - otherwise, for f the cell of higher dimension (the later one on a
      tie) and delta = ``separating_section(alpha, beta)``, a section of
      alpha, f ~ (g, beta).delta.  That simplex lies on a cell of lower
      dimension than f, as beta.delta is not a bijection.  It becomes f's
      form, f's stored faces are queued against its faces, and the popped
      pair is queued again.

    Each step kills a first cell for good, so a merge takes at most
    |cells| steps whatever it merges, and each step relates only simplices
    that the pair forces together.  Closure under degeneracies needs no
    work: (c, sigma) degenerated by rho is (c, rho then sigma), whose class
    is the class of (c, sigma) degenerated by rho.  Closure under faces
    holds because every form's faces are queued against the faces of its
    cell, and every operator is a face after a degeneracy.
    """

    def __init__(self, space: SimplicialSet):
        self.space = space
        self._form: dict[int, Simplex] = {}

    def _resolve(self, c: int) -> Simplex:
        """The normal form of a cell with a form, shortening its chain."""
        form = self._form
        s = form[c]
        below = form.get(s[0])
        if below is None:
            return s
        # a chain can run through every cell, so it is walked, not recursed
        chain = [c]
        while below is not None:
            chain.append(s[0])
            s = below
            below = form.get(s[0])
        chain.pop()
        first, gamma = s
        for d in reversed(chain):
            gamma = compose(form[d][1], gamma)
            form[d] = _simplex((first, gamma))
        return form[c]

    def find(self, s: Simplex) -> Simplex:
        """The EZ normal form of the class of s, as a degeneracy of a first cell."""
        got = self._form.get(s[0])
        if got is None:
            return s
        if got[0] in self._form:
            got = self._resolve(s[0])
        return _simplex((got[0], compose(s[1], got[1])))

    def merge(self, s: Simplex, t: Simplex) -> None:
        """Merge two simplices of equal degree and close under all operators.

        Both are in EZ normal form, as every simplex a space enumerates or
        eval returns is, and so is every stored face.  A new form's faces
        are its ``face_row`` in the space, so each is evaluated once per
        space, for every congruence on it and every copy of one.
        """
        if s.degree != t.degree:
            raise ValueError("cannot merge simplices of different degrees")
        form, find = self._form, self.find
        cells, ev, face_row = self.space.cells, self.space.eval, self.space.face_row
        work = [(s, t)]
        while work:
            a, b = work.pop()
            fa, fb = find(a), find(b)
            if fa == fb:
                continue
            (f, alpha), (g, beta) = fa, fb
            if alpha == beta:
                if f < g:
                    f, g = g, f
                form[f] = _simplex((g, identity(alpha.dst)))
                work.extend(zip(cells[f].faces, cells[g].faces))
                continue
            if (alpha.dst, f) < (beta.dst, g):
                f, alpha, g, beta = g, beta, f, alpha
            to = ev(_simplex((g, beta)), separating_section(alpha, beta))
            form[f] = to
            work.append((a, b))
            work.extend(zip(cells[f].faces, face_row(to)))

    def killed_forms(self) -> dict[int, Simplex]:
        """The normal forms of the killed cells, in a dict later merges
        leave as it is.  Every other cell is a first cell, its own form, so
        this fixes the relation, and it is canonical for it: two
        congruences are equal exactly when their killed forms are."""
        resolve = self._resolve
        return {c: resolve(c) for c in self._form}

    def classes(self) -> dict[Simplex, list[Simplex]]:
        """All simplices of degree <= dim X grouped by class, scan order kept.

        The definition of the relation as a partition; ``killed_forms``
        fixes the same classes on the cell table without this walk.
        """
        out: dict[Simplex, list[Simplex]] = {}
        for q in range(max(self.space.dim, 0) + 1):
            for s in self.space.simplices(q):
                out.setdefault(self.find(s), []).append(s)
        return out

    def canonical(self) -> frozenset[frozenset[Simplex]]:
        return frozenset(
            frozenset(members) for members in self.classes().values() if len(members) > 1
        )

    def copy(self) -> "Congruence":
        other = Congruence.__new__(Congruence)
        other.space = self.space
        other._form = dict(self._form)
        return other


def congruence_from_pairs(
    space: SimplicialSet, pairs: Iterable[tuple[Simplex, Simplex]]
) -> Congruence:
    cong = Congruence(space)
    for s, t in pairs:
        cong.merge(s, t)
    return cong


def kernel_congruence(f: SimplicialMap) -> Congruence:
    """The relation f(s) = f(t), built from one pair per cell at most.

    The cells are walked in (dimension, id) order.  For f(x) = (w, rho),
    x becomes z_w, the first cell that f sends onto w under the identity,
    when there is none yet and rho is the identity; otherwise x is merged
    with (z_w, rho).  By the face lemma in the ``cylinders`` docstring,
    a cell of lower dimension than x maps onto w when rho is not the
    identity, so z_w comes before x.  The pairs lie in the kernel: f(z_w, rho) is f(z_w)
    degenerated by rho, which is (w, rho).  And they generate it: a
    simplex (x, sigma) has the image (w, rho sigma), in normal form, and
    is related to (z_w, rho) degenerated by sigma, (z_w, rho sigma); so
    two simplices with one image reach the same simplex.
    """
    space, asg, first = f.source, f.assignment, {}

    def pairs():
        for x in space.cell_order():
            w, rho = asg[x]
            if rho.is_identity and first.setdefault(w, x) == x:
                continue
            yield space.simplex(x), _simplex((first[w], rho))

    return congruence_from_pairs(space, pairs())


@dataclass
class QuotientResult:
    space: SimplicialSet
    projection: SimplicialMap


def quotient(space: SimplicialSet, cong: Congruence) -> QuotientResult:
    """The quotient by a congruence, read off its killed forms.

    The cells of the quotient are the cell classes, numbered by their first
    cells, the cells that are not killed, in (dimension, id) order.  A
    stored face (t, sigma) of a first cell stays (new id of t, sigma) when
    t is a first cell, and becomes (new id of its form's cell, sigma then
    the form's degeneracy) when t is killed.  The projection sends a first
    cell to its own number under the identity and a killed cell to its
    form.  No simplex of X outside the cell table is looked at; the
    members of a class are the fibre of the projection over its cell, and
    no other table lists them.
    """
    killed = cong.killed_forms()
    new_id: dict[int, int] = {}
    for c in space.cell_order():
        if c not in killed:
            new_id[c] = len(new_id)
    cells: dict[int, Cell] = {}
    for first, n in new_id.items():
        cell = space.cells[first]
        faces = []
        for t, sigma in cell.faces:
            form = killed.get(t)
            if form is None:
                faces.append((new_id[t], sigma))
            else:
                faces.append((new_id[form.cell], compose(sigma, form.degen)))
        cells[n] = Cell(cell.dim, tuple(faces))
    qspace = SimplicialSet(cells)
    asg: dict[int, Simplex] = {}
    for cid, cell in space.cells.items():
        form = killed.get(cid)
        if form is None:
            asg[cid] = _simplex((new_id[cid], identity(cell.dim)))
        else:
            asg[cid] = _simplex((new_id[form.cell], form.degen))
    return QuotientResult(qspace, SimplicialMap(space, qspace, asg))


def disjoint_union(
    x: SimplicialSet, y: SimplicialSet
) -> tuple[SimplicialSet, SimplicialMap, SimplicialMap]:
    xmap = {cid: i for i, cid in enumerate(sorted(x.cells))}
    off = len(xmap)
    ymap = {cid: off + i for i, cid in enumerate(sorted(y.cells))}
    cells: dict[int, Cell] = {}
    for cid, c in x.cells.items():
        cells[xmap[cid]] = Cell(c.dim, tuple((xmap[t], op) for t, op in c.faces))
    for cid, c in y.cells.items():
        cells[ymap[cid]] = Cell(c.dim, tuple((ymap[t], op) for t, op in c.faces))
    z = SimplicialSet(cells)
    inl = SimplicialMap(x, z, {c: Simplex(xmap[c], identity(x.cells[c].dim)) for c in x.cells})
    inr = SimplicialMap(y, z, {c: Simplex(ymap[c], identity(y.cells[c].dim)) for c in y.cells})
    return z, inl, inr


class PushoutResult:
    """Pushout Z of f: A -> X along g: A -> Y, with its two legs.

    f must be degreewise injective, and Z is attached along it: the cells
    of Y, then the cells of X that A does not hit.  Those are the classes
    of X u Y under f(a) ~ g(a) with no degenerate member, and they are
    numbered as ``quotient`` numbers classes: by their first members in
    (dimension, union id) order, with the ids ``disjoint_union`` gives,
    X's first.  No table lists a class's members: the legs say which
    cells were glued.  A stored face (t, sigma) becomes (w, sigma) when
    its leg sends t to the cell w itself, and (w, rho after sigma) only
    when it sends t to a degeneracy (w, rho): the same operator, with no
    compose.  Z and both legs are validated.
    """

    def __init__(self, f: SimplicialMap, g: SimplicialMap):
        if f.source is not g.source and not f.source.same_presentation(g.source):
            raise ValueError("pushout legs must share their source")
        if not f.is_degreewise_injective():
            raise ValueError("pushout needs a degreewise injective first leg")
        spaces = {"x": f.target, "y": g.target}
        # each cell of X hit by A, with the simplex of Y it is glued to
        glued = {f.assignment[a].cell: g.assignment[a] for a in f.source.cells}
        union = [("x", c) for c in sorted(f.target.cells)]
        union += [("y", c) for c in sorted(g.target.cells)]

        # A union cell is a member of its own class, except that a cell
        # A hits is a member of the class of the cell it is glued to, and
        # one glued to a degenerate simplex is a member of no cell class;
        # a class is numbered when its first member comes up.
        new_id: dict[tuple[str, int], int] = {}
        dims = [spaces[side].cells[c].dim for side, c in union]
        for u in sorted(range(len(union)), key=dims.__getitem__):
            side, c = key = union[u]
            if side == "x" and c in glued:
                s = glued[c]
                if not s.degen.is_identity:
                    continue
                key = ("y", s.cell)
            new_id.setdefault(key, len(new_id))

        legs: dict[str, dict[int, Simplex]] = {}
        for side, space in spaces.items():
            legs[side] = asg = {}
            for c, cell in space.cells.items():
                s = glued.get(c) if side == "x" else None
                if s is None:
                    asg[c] = _simplex((new_id[(side, c)], identity(cell.dim)))
                else:
                    asg[c] = _simplex((new_id[("y", s.cell)], s.degen))
        cells: dict[int, Cell] = {}
        for (side, c), n in new_id.items():
            cell, asg = spaces[side].cells[c], legs[side]
            faces = []
            for t, sigma in cell.faces:
                w, rho = asg[t]
                faces.append((w, sigma if rho.is_identity else compose(sigma, rho)))
            cells[n] = Cell(cell.dim, tuple(faces))
        self.space = SimplicialSet(cells)
        self.left = SimplicialMap(f.target, self.space, legs["x"])
        self.right = SimplicialMap(g.target, self.space, legs["y"])


def pushout(f: SimplicialMap, g: SimplicialMap) -> PushoutResult:
    """The pushout of a span whose first leg is degreewise injective.

    Raises ValueError when it is not; the quotient of the disjoint union
    would define that pushout too, and no caller builds one.
    """
    return PushoutResult(f, g)


@dataclass
class ProductResult:
    """X x Y with the pair of simplices each cell stands for: ``ids``
    sends each jointly non-degenerate pair to its cell.  The projections
    ``first`` and ``second`` send each cell to its pair's simplex of X
    and of Y; each is read off ``ids``, built and validated on its first
    read, so a product whose projections nothing reads builds no map."""

    space: SimplicialSet
    ids: dict[tuple[Simplex, Simplex], int]
    factors: tuple[SimplicialSet, SimplicialSet]

    @cached_property
    def first(self) -> SimplicialMap:
        return SimplicialMap(
            self.space, self.factors[0], {cid: sx for (sx, _), cid in self.ids.items()}
        )

    @cached_property
    def second(self) -> SimplicialMap:
        return SimplicialMap(
            self.space, self.factors[1], {cid: sy for (_, sy), cid in self.ids.items()}
        )


@lru_cache(maxsize=None)
def _repeat_mask(op: Operator) -> int:
    """The repeat positions of a degeneracy, as a bitmask."""
    return sum(1 << i for i in op.repeats())


@lru_cache(maxsize=None)
def _strip_common(alpha: Operator, beta: Operator) -> tuple[Operator, Operator, Operator]:
    """Split off the common degeneracy of two degeneracies out of one rank.

    Returns (alpha', beta', rho) with no repeat common to alpha' and beta',
    such that (c, alpha) is (c, alpha') degenerated by rho for every cell
    c, and likewise for beta.  One split is enough: rho collapses the runs
    on which both are constant, and the values on neighbouring runs differ
    on at least one side.
    """
    common = set(alpha.repeats()) & set(beta.repeats())
    if not common:
        return alpha, beta, identity(alpha.src)
    rho = degeneracy_from_repeats(common, alpha.src)
    lift = section(rho)
    return compose(lift, alpha), compose(lift, beta), rho


def product(x: SimplicialSet, y: SimplicialSet) -> ProductResult:
    """Cells are the jointly non-degenerate pairs of simplices.

    A pair is jointly non-degenerate when its degeneracies share no
    repeat.  A product cell's i-th face is the pair of i-th faces with
    their common degeneracy split off, read from each factor's
    ``face_row``: the rows are kept on the factors, so each is evaluated
    once per factor, for this product, later products and the validation
    of a projection alike.  The result keeps the pair of each cell, and
    builds a projection only when it is read: ``verify.prism_comparison``
    reads both, and no other program path reads either.
    """
    pairs: list[tuple[Simplex, Simplex]] = []
    for q in range(x.dim + y.dim + 1):
        ys = [(sy, _repeat_mask(sy.degen)) for sy in y.simplices(q)]
        for sx in x.simplices(q):
            rx = _repeat_mask(sx.degen)
            pairs.extend([(sx, sy) for sy, ry in ys if not rx & ry])
    ids = {pair: cid for cid, pair in enumerate(pairs)}
    row_x, row_y = x.face_row, y.face_row
    cells: dict[int, Cell] = {}
    for (sx, sy), cid in ids.items():
        q = sx.degree
        if not q:
            cells[cid] = Cell(0, ())
            continue
        faces = []
        for (cx, alpha), (cy, beta) in zip(row_x(sx), row_y(sy)):
            a, b, rho = _strip_common(alpha, beta)
            # a plain pair hashes and compares as the Simplex it stands for
            faces.append((ids[((cx, a), (cy, b))], rho))
        cells[cid] = Cell(q, tuple(faces))
    return ProductResult(SimplicialSet(cells), ids, (x, y))


def collapse_subcomplex(space: SimplicialSet, seeds: Iterable[int]) -> QuotientResult:
    """Quotient collapsing the subcomplex generated by the seeds to a vertex."""
    keep = generated_cells(space, seeds)
    if not keep:
        raise ValueError("cannot collapse an empty subcomplex")
    base = min(cid for cid in keep if space.cells[cid].dim == 0)
    pairs = (
        (s, _simplex((base, degeneracy_from_repeats(range(s.degree), s.degree))))
        for s in map(space.simplex, sorted(keep))
    )
    return quotient(space, congruence_from_pairs(space, pairs))


# -- regularity ------------------------------------------------------------


def regularity_witness(space: SimplicialSet) -> int | None:
    """The first cell, in id order, whose last-face attachment is not injective.

    A complex is regular when for every cell y of dimension d the canonical
    map out of the pushout P of the d-simplex and the subcomplex Z generated
    by the last face of y is degreewise injective.  By Eilenberg-Zilber a
    map is injective exactly when it sends non-degenerate simplices to
    non-degenerate ones, injectively.  The non-degenerate simplices of P are
    those of Z, which go to themselves, and the faces mu of [d] containing
    the vertex d, which go to y.mu.  So the attachment of y is injective iff
    every such y.mu is non-degenerate, is not a cell of Z, and differs from
    every other such y.mu'.

    One pass over the cells in (dimension, id) order decides every cell.
    Each cell c gets two bitmasks over positions in that order: its
    closure, c with the closures of its stored faces, and ``through``, c
    with ``through`` of each non-last stored face.  Each cell in
    ``through`` is some non-degenerate y.mu, and every y.mu is in it when
    none is degenerate.  That is because a face mu != [d] containing d lies
    in the face omitting some i < d, and there contains the last vertex
    again; and where that stored face is (t, sigma), each t.nu with nu containing the
    last vertex is y.mu for mu the face omitting i after a section of
    sigma on nu that keeps the last vertex.  So the 2^d simplices y.mu are
    non-degenerate and distinct exactly when ``through`` has 2^d bits, and
    they miss Z exactly when it meets no bit of the last face's closure.
    A degenerate stored face needs no check of its own.
    """
    cells = space.cells
    closure: dict[int, int] = {}
    through: dict[int, int] = {}
    witness = None
    for k, c in enumerate(space.cell_order()):
        bit = 1 << k
        faces = cells[c].faces
        if not faces:
            closure[c] = through[c] = bit
            continue
        *rest, (last, _) = faces
        seen = thr = bit
        for t, _ in rest:
            seen |= closure[t]
            thr |= through[t]
        z = closure[last]
        closure[c], through[c] = seen | z, thr
        if (thr.bit_count() != 1 << len(rest) or thr & z) and (
            witness is None or c < witness
        ):
            witness = c
    return witness


def is_regular(space: SimplicialSet) -> bool:
    return regularity_witness(space) is None
