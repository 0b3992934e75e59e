from __future__ import annotations

import random

import pytest

from zzpers.chains import (Chain, Simplex, SimplicialComplex, boundary,
                           chain_add, chain_boundary, is_cycle)
from zzpers.errors import ContractViolation

from conftest import simplex


def chain(*simplices, dim=None):
    simps = [Simplex(s) for s in simplices]
    if dim is None:
        dim = simps[0].dimension
    return Chain(dim, simps)


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
    def test_shared_simplex_cancels(self):
        a = chain((0, 1), (1, 2))
        b = chain((1, 2), (0, 2))
        assert chain_add(a, b) == chain((0, 1), (0, 2))

    def test_involution(self):
        z = chain((0, 1), (2, 3))
        assert chain_add(z, z) == Chain(1)

    def test_identity(self):
        a = chain((0, 1))
        assert chain_add(a, Chain(1)) == a

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            chain_add(chain((0, 1)), chain((2,)))


class TestBoundary:
    def test_vertex(self):
        assert boundary(simplex(0)) == Chain(0)

    def test_edge(self):
        assert boundary(simplex(0, 1)) == chain((0,), (1,))

    def test_triangle(self):
        assert boundary(simplex(0, 1, 2)) == chain((0, 1), (1, 2), (0, 2))

    def test_chain_boundary_cancels_shared_vertex(self):
        assert chain_boundary(chain((0, 1), (1, 2))) == chain((0,), (2,))

    def test_chain_boundary_of_triangle(self):
        assert chain_boundary(chain((0, 1, 2))) == chain((0, 1), (1, 2), (0, 2))

    def test_boundary_squared_vanishes(self):
        c = chain((0, 1, 2), (0, 1, 3))
        assert chain_boundary(chain_boundary(c)) == Chain(0)

    def test_dimension_zero_rejected(self):
        with pytest.raises(ContractViolation):
            chain_boundary(chain((0,)))


class TestIsCycle:
    def test_triangle_boundary_is_cycle(self):
        assert is_cycle(chain((0, 1), (1, 2), (0, 2)))

    def test_single_edge_is_not(self):
        assert not is_cycle(chain((0, 1)))

    def test_empty_and_vertices(self):
        assert is_cycle(Chain(1))
        assert is_cycle(chain((0,), (5,)))


def random_chain(rng, dim, verts=6, density=0.4):
    from itertools import combinations
    simps = [Simplex(c) for c in combinations(range(verts), dim + 1)]
    return Chain(dim, [s for s in simps if rng.random() < density])


def test_algebra_properties(rng):
    for _ in range(120):
        dim = rng.choice([1, 2])
        a, b, c = (random_chain(rng, dim) for _ in range(3))
        assert chain_add(a, b) == chain_add(b, a)
        assert chain_add(chain_add(a, b), c) == chain_add(a, chain_add(b, c))
        assert chain_add(a, a) == Chain(dim)
        # boundary is linear
        assert chain_boundary(chain_add(a, b)) == \
            chain_add(chain_boundary(a), chain_boundary(b))
        if dim == 2:
            assert not chain_boundary(chain_boundary(a))


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
