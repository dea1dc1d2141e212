from __future__ import annotations

import copy
import pickle
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from ssetforge.operators import (
    _CANON,
    Operator,
    _canon,
    _degeneracy,
    all_degeneracies,
    all_faces,
    compose,
    degeneracy_from_repeats,
    ez_factor,
    face_restriction,
    face_split,
    identity,
    make_face,
    make_vertex,
    run_collapse,
    section,
)

from reference import all_operators, make_degen


def operators(max_rank=4):
    return st.tuples(
        st.integers(0, max_rank), st.integers(0, max_rank)
    ).flatmap(
        lambda mn: st.lists(
            st.integers(0, mn[1]), min_size=mn[0] + 1, max_size=mn[0] + 1
        ).map(lambda vals: Operator(mn[1], tuple(sorted(vals))))
    )


def test_generators():
    assert make_face(1, 2).values == (0, 2)
    assert make_degen(0, 1).values == (0, 0, 1)
    assert make_degen(0, 1).src == 2 and make_degen(0, 1).dst == 1
    assert make_vertex(2, 3).values == (2,)
    assert identity(2).values == (0, 1, 2)
    with pytest.raises(ValueError):
        make_face(0, 0)
    with pytest.raises(ValueError):
        make_vertex(3, 2)
    with pytest.raises(ValueError):
        Operator(2, (1, 0))
    with pytest.raises(ValueError):
        Operator(2, (0, 3))


def test_compose_example():
    # vertex 0 into [1], then the face of [2] omitting 2: lands on vertex 1? no:
    # (delta_2 o delta_0)(0) = delta_2(1) = 1, so the composite is vertex 1 of [2].
    left = make_face(0, 1)
    right = make_face(2, 2)
    assert compose(left, right) == make_vertex(1, 2)
    with pytest.raises(ValueError):
        compose(make_face(0, 2), make_face(0, 2))


def test_ez_factor_example():
    op = Operator(2, (0, 0, 2))
    face_part, degen_part = ez_factor(op)
    assert face_part == Operator(2, (0, 2))
    assert degen_part == make_degen(0, 1)
    assert compose(degen_part, face_part) == op


def test_ez_factor_unique_exhaustive():
    # brute-force uniqueness of the epi-mono factorization for ranks <= 5
    for src in range(5):
        for dst in range(5):
            faces = {k: list(all_faces(dst)) for k in [0]}[0]
            for op in all_operators(src, dst):
                hits = [
                    (mu, tau)
                    for mu in faces
                    for tau in all_degeneracies(src, mu.src)
                    if compose(tau, mu) == op
                ]
                assert len(hits) == 1
                assert hits[0] == ez_factor(op)


def test_simplicial_identities():
    # double faces: delta_j o delta_i == delta_i o delta_{j-1} for i < j
    for n in range(2, 6):
        for j in range(n + 1):
            for i in range(j):
                assert compose(make_face(i, n - 1), make_face(j, n)) == compose(
                    make_face(j - 1, n - 1), make_face(i, n)
                )
    # double degeneracies: sigma_j o sigma_i == sigma_i o sigma_{j+1} for i <= j
    for n in range(1, 6):
        for j in range(n):
            for i in range(j + 1):
                assert compose(make_degen(i, n), make_degen(j, n - 1)) == compose(
                    make_degen(j + 1, n), make_degen(i, n - 1)
                )
    # mixed: sigma_j o delta_i
    for n in range(1, 6):
        for i in range(n + 1):
            for j in range(n):
                lhs = compose(make_face(i, n), make_degen(j, n - 1))
                if i == j or i == j + 1:
                    assert lhs == identity(n - 1)
                elif i < j:
                    assert lhs == compose(make_degen(j - 1, n - 2), make_face(i, n - 1))
                else:
                    assert lhs == compose(make_degen(j, n - 2), make_face(i - 1, n - 1))


def chained_operator_triples():
    def build(draw_data):
        ranks, raw = draw_data
        ops = []
        for k in range(3):
            lo = ranks[k] + 1
            vals = tuple(sorted(v % (ranks[k + 1] + 1) for v in raw[k][:lo]))
            ops.append(Operator(ranks[k + 1], vals))
        return tuple(ops)

    return st.tuples(
        st.tuples(*(st.integers(0, 4) for _ in range(4))),
        st.tuples(*(st.lists(st.integers(0, 100), min_size=5, max_size=5) for _ in range(3))),
    ).map(build)


@given(chained_operator_triples())
def test_compose_associative(ops):
    a, b, c = ops
    assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_section_and_restriction():
    for src in range(1, 5):
        for dst in range(src + 1):
            for tau in all_degeneracies(src, dst):
                assert compose(section(tau), tau) == identity(dst)
    mu = Operator(3, (0, 2, 3))
    nu = Operator(3, (0, 3))
    rho = face_restriction(mu, nu)
    assert compose(rho, mu) == nu
    with pytest.raises(ValueError):
        face_restriction(nu, mu)


def test_run_collapse():
    out, op = run_collapse(("a", "a", "b", "b", "b", "c"))
    assert out == ("a", "b", "c")
    assert op.values == (0, 0, 1, 1, 1, 2)
    assert tuple(out[op(i)] for i in range(op.src + 1)) == ("a", "a", "b", "b", "b", "c")
    out, op = run_collapse((5,))
    assert out == (5,) and op == identity(0)


def test_degeneracy_enumeration_counts():
    # surjections [src] ->> [dst] biject with repeat-position subsets
    for src in range(6):
        for dst in range(src + 1):
            got = list(all_degeneracies(src, dst))
            assert len(got) == len(set(got))
            from math import comb

            assert len(got) == comb(src, src - dst)


def _degeneracies_by_definition(src, dst):
    # the surjections [src] ->> [dst] one repeat-position set at a time, in
    # combinations order, each built from its values
    if src < dst:
        return
    for reps in combinations(range(src), src - dst):
        vals = [0]
        for j in range(src):
            vals.append(vals[-1] if j in reps else vals[-1] + 1)
        yield Operator(dst, tuple(vals))


def test_memoized_calculus_matches_definitions():
    # the memoized functions against their plain bodies, and the invariants
    # stored at construction against their definitions, for every operator
    # between ranks <= 4 and every composable pair of them; every result of
    # the calculus is the interned operator equal to it
    def interned(*results):
        for got in results:
            assert got is _CANON[got]

    ranks = range(5)
    ops = [op for src in ranks for dst in ranks for op in all_operators(src, dst)]
    for op in ops:
        steps = list(zip(op.values, op.values[1:]))
        assert op.src == len(op.values) - 1
        assert op.is_face == all(a < b for a, b in steps)
        assert op.is_degeneracy == (set(op.values) == set(range(op.dst + 1)))
        assert op.is_identity == (op.is_face and op.src == op.dst)
        assert hash(op) == hash((op.dst, op.values))
        assert repr(op) == f"Operator(dst={op.dst}, values={op.values!r})"
        assert ez_factor(op) == ez_factor.__wrapped__(op)
        interned(*ez_factor(op))
        if op.is_face and not op.is_identity:
            assert face_split(op) == face_split.__wrapped__(op)
            i, rest = face_split(op)
            assert i == max(set(range(op.dst + 1)) - set(op.values))
            assert compose(rest, make_face(i, op.dst)) == op
            interned(rest)
        if op.is_degeneracy:
            assert section(op) == section.__wrapped__(op)
            reps = op.repeats()
            assert degeneracy_from_repeats(reps, op.src) == op
            assert _degeneracy(frozenset(reps), op.src) == _degeneracy.__wrapped__(
                frozenset(reps), op.src
            )
            interned(section(op), degeneracy_from_repeats(reps, op.src))
    for first in ops:
        for second in ops:
            if first.dst == second.src:
                assert compose(first, second) == compose.__wrapped__(first, second)
                interned(compose(first, second))
            if first.is_face and second.is_face and first.dst == second.dst:
                try:
                    want = face_restriction.__wrapped__(first, second)
                except ValueError:
                    with pytest.raises(ValueError):
                        face_restriction(first, second)
                else:
                    assert face_restriction(first, second) == want
                    interned(face_restriction(first, second))
    for n in ranks:
        assert identity(n) == identity.__wrapped__(n)
        interned(identity(n))
        for i in range(n + 1):
            assert make_vertex(i, n) == make_vertex.__wrapped__(i, n)
            interned(make_degen(i, n), make_vertex(i, n))
            if n:
                assert make_face(i, n) == make_face.__wrapped__(i, n)
                interned(make_face(i, n))
        for dst in ranks:
            got = all_degeneracies(n, dst)
            assert isinstance(got, tuple)
            assert got == all_degeneracies.__wrapped__(n, dst)
            assert list(got) == list(_degeneracies_by_definition(n, dst))
            interned(*got)


def test_all_faces_memoized_and_interned():
    # the faces into [n] in combinations order, built once per n: the same
    # tuple object on every call, each face the interned operator equal to it
    for n in range(6):
        got = all_faces(n)
        assert isinstance(got, tuple) and got is all_faces(n)
        want = [
            Operator(n, img)
            for size in range(1, n + 2)
            for img in combinations(range(n + 1), size)
        ]
        assert list(got) == want
        assert [op.values for op in got] == [op.values for op in want]
        for op in got:
            assert op.is_face and op is _canon(op)


@dataclass(frozen=True)
class _DataclassOperator:
    # the frozen-dataclass form of Operator, as the reference for its tuple
    # form; the invariants are computed from their definitions
    dst: int
    values: tuple[int, ...]

    @property
    def src(self):
        return len(self.values) - 1

    @property
    def is_face(self):
        return all(a < b for a, b in zip(self.values, self.values[1:]))

    @property
    def is_degeneracy(self):
        return set(self.values) == set(range(self.dst + 1))

    @property
    def is_identity(self):
        return self.values == tuple(range(self.dst + 1))


def test_tuple_operator_matches_dataclass_form():
    # hash, equality, repr and the stored invariants of every operator
    # between ranks <= 4 agree with the dataclass form; an operator also
    # equals its plain (dst, values) pair
    ranks = range(5)
    ops = [op for src in ranks for dst in ranks for op in all_operators(src, dst)]
    olds = [_DataclassOperator(op.dst, op.values) for op in ops]
    for op, old in zip(ops, olds):
        assert isinstance(op, tuple) and len(op) == 2
        assert hash(op) == hash(old) == hash((op.dst, op.values))
        assert repr(op) == "Operator" + repr(old)[len("_DataclassOperator"):]
        assert op == (old.dst, old.values) and (old.dst, old.values) == op
        assert (op.src, op.is_face, op.is_degeneracy, op.is_identity) == (
            old.src, old.is_face, old.is_degeneracy, old.is_identity
        )
    for op, old in zip(ops, olds):
        for other, old_other in zip(ops, olds):
            assert (op == other) == (old == old_other)
            assert (op != other) == (old != old_other)


def test_operator_is_immutable():
    op = Operator(2, (0, 1, 1))
    for name in ("dst", "values", "src", "is_face", "is_degeneracy", "is_identity", "other"):
        with pytest.raises(AttributeError):
            setattr(op, name, 0)
        with pytest.raises(AttributeError):
            delattr(op, name)
    assert op == (2, (0, 1, 1)) and op.src == 2 and not op.is_face
    for again in (copy.copy(op), pickle.loads(pickle.dumps(op))):
        assert type(again) is Operator and again == op
        assert (again.src, again.is_face, again.is_degeneracy) == (2, False, False)


def test_post_init_runs_once_per_construction(monkeypatch):
    # counted as a wrapper on the class, the way perfbench's layer trace
    # counts operator construction
    calls = []
    validate = Operator.__post_init__

    def counting(self):
        calls.append(tuple(self))
        return validate(self)

    monkeypatch.setattr(Operator, "__post_init__", counting)
    built = list(all_operators(2, 3))
    assert len(calls) == len(built) == 20
    with pytest.raises(ValueError, match="not weakly increasing"):
        Operator(2, (1, 0))
    assert len(calls) == 21
    assert Operator(dst=1, values=(0, 1)) == identity.__wrapped__(1)
    assert len(calls) == 23


@pytest.mark.parametrize(
    "dst, values, message",
    [
        (-1, (0,), "negative destination rank"),
        (2, (), "at least one value"),
        (2, (1, 0), "not weakly increasing"),
        (2, (0, 3), "out of range"),
        (2, (-1, 0), "out of range"),
    ],
)
def test_constructor_rejects_bad_operators(dst, values, message):
    with pytest.raises(ValueError, match=message):
        Operator(dst, values)
