from __future__ import annotations

import random

import pytest

from zzpers.chains import Simplex, SimplicialComplex
from zzpers.errors import ContractViolation
from zzpers.planner import random_filtration
from zzpers.reps import ChainStore

from conftest import chain, simplex


class TestSimplex:
    def test_orders_and_dimension(self):
        s = simplex(0, 2, 5)
        assert s.dimension == 2
        assert s.text() == "0 2 5"
        assert Simplex.from_text("0 2 5") == s

    def test_rejects_bad_vertices(self):
        with pytest.raises(ContractViolation):
            Simplex([])
        with pytest.raises(ContractViolation):
            Simplex([2, 1])
        with pytest.raises(ContractViolation):
            Simplex([1, 1])
        with pytest.raises(ContractViolation):
            Simplex([-1])

    def test_faces(self):
        assert simplex(3).faces() == []
        assert set(simplex(0, 1, 2).faces()) == {simplex(0, 1), simplex(0, 2),
                                                 simplex(1, 2)}


class TestChainAdd:
    """A sum of chains is the XOR of their masks."""

    def test_shared_simplex_cancels(self, tri):
        store = ChainStore(tri.index())
        a = chain(tri, (0, 1), (1, 2))
        b = chain(tri, (1, 2), (0, 2))
        assert store.add(a, b) == chain(tri, (0, 1), (0, 2))

    def test_involution(self, tri):
        store = ChainStore(tri.index())
        z = chain(tri, (0, 1), (2, 3))
        assert store.add(z, z) == 0

    def test_identity(self, tri):
        store = ChainStore(tri.index())
        a = chain(tri, (0, 1))
        assert store.add(a, 0) == store.add(0, a) == a


class TestBoundary:
    """Chains as ints over a complex index: the boundary is the XOR of the
    face masks of a chain's simplices."""

    def test_vertex(self, tri):
        assert tri.index().boundary(chain(tri, (0,))) == 0

    def test_edge(self, tri):
        assert tri.index().boundary(chain(tri, (0, 1))) == chain(tri, (0,), (1,))

    def test_triangle(self, tri):
        want = chain(tri, (0, 1), (1, 2), (0, 2))
        assert tri.index().boundary(chain(tri, (0, 1, 2))) == want

    def test_shared_face_cancels(self, tri):
        assert tri.index().boundary(chain(tri, (0, 1), (1, 2))) == chain(tri, (0,), (2,))
        two = chain(tri, (0, 1, 2), (0, 1, 3))
        assert tri.index().boundary(two) == chain(tri, (0, 2), (1, 2), (0, 3), (1, 3))

    def test_boundary_squared_vanishes(self, tri):
        index = tri.index()
        assert index.boundary(index.boundary(chain(tri, (0, 1, 2), (0, 1, 3)))) == 0


class TestIsCycle:
    """A chain is a cycle when its boundary mask is 0."""

    def test_triangle_boundary_is_cycle(self, tri):
        assert tri.index().boundary(chain(tri, (0, 1), (1, 2), (0, 2))) == 0

    def test_single_edge_is_not(self, tri):
        assert tri.index().boundary(chain(tri, (0, 1))) != 0

    def test_empty_and_vertices(self, tri):
        assert tri.index().boundary(0) == 0
        assert tri.index().boundary(chain(tri, (0,), (5,))) == 0


def test_boundary_is_linear_and_squares_to_zero():
    # random chains over the numbered simplices of random filtrations:
    # d(a ^ b) == d(a) ^ d(b), and dd = 0
    rng = random.Random(32)
    checked = 0
    while checked < 240:
        f = random_filtration(rng, list(range(6)), dim_cap=2, max_simplices=24,
                              max_length=60)
        index = f.index()
        for _ in range(20):
            dim = rng.choice([1, 2])
            group = [bit for bit in map(index.flags.get, index.simplices)
                     if bit & (index.dims[dim] if dim < len(index.dims) else 0)]
            if not group:
                continue
            a, b = (sum(bit for bit in group if rng.random() < 0.4) for _ in range(2))
            assert index.boundary(a ^ b) == index.boundary(a) ^ index.boundary(b)
            assert index.boundary(index.boundary(a)) == 0
            checked += 1


class TestNumbering:
    def test_faces_first_and_bits_never_move(self, tri):
        index = tri.index()
        before = dict(index.flags)
        # a tetrahedron numbers its missing triangles and edges, and their
        # missing vertex, before itself
        bit = index.number(simplex(0, 1, 2, 3))
        assert {s: index.flags[s] for s in before} == before
        assert all(index.flags[face] < index.flags[s] for s in index.flags
                   for face in s.faces())
        assert bit == 1 << (len(index.simplices) - 1)
        assert index.simplices[-1] == simplex(0, 1, 2, 3)
        assert index.number(simplex(0, 1, 2, 3)) == bit
        assert sorted(index.decoded(index.faces[-1])) == sorted(simplex(0, 1, 2, 3).faces())
        # numbering sets no bit of any complex
        assert index.masks == index.replay(tri.steps)
        assert [sorted(index.decoded(m)) for m in index.dims] == [
            [simplex(0), simplex(1), simplex(2), simplex(3)],
            [simplex(0, 1), simplex(0, 2), simplex(0, 3), simplex(1, 2), simplex(1, 3),
             simplex(2, 3)],
            [simplex(0, 1, 2), simplex(0, 1, 3), simplex(0, 2, 3), simplex(1, 2, 3)],
            [simplex(0, 1, 2, 3)]]


class TestSimplicialComplex:
    def test_face_closure_rules(self):
        cx = SimplicialComplex()
        cx.add(simplex(0))
        cx.add(simplex(1))
        with pytest.raises(ContractViolation):
            cx.add(simplex(0, 2))
        cx.add(simplex(0, 1))
        assert cx.has_cofaces(simplex(0))
        with pytest.raises(ContractViolation):
            cx.delete(simplex(0))
        cx.delete(simplex(0, 1))
        cx.delete(simplex(0))
        assert simplex(0) not in cx
