from __future__ import annotations

import random

import pytest

from zzpers.chains import Simplex
from zzpers.errors import ContractViolation
from zzpers.filtration import ADD, DELETE, Step, ZigzagFiltration
from zzpers.planner import apply_to_filtration, random_filtration, random_script

from conftest import filtration, simplex

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below needs hypothesis
    given = None


class TestValidate:
    def test_minimal_ok(self):
        assert filtration("+0", "-0").validate() == []

    def test_missing_faces_and_nonempty_end(self):
        bad = filtration("+0.1")
        msgs = bad.validate()
        assert any("missing faces" in m for m in msgs)
        assert any("not empty" in m for m in msgs)

    def test_coface_present_at_delete(self):
        bad = filtration("+0", "+1", "+0.1", "-1")
        msgs = bad.validate()
        assert any("has cofaces" in m for m in msgs)

    def test_double_add(self):
        bad = ZigzagFiltration.from_moves([("i", [0]), ("i", [0])])
        assert any("already present" in m for m in bad.validate())


def reference_validate(f: ZigzagFiltration) -> list[str]:
    """validate() with the coface rule as a scan of every present simplex."""
    violations: list[str] = []
    present: set[Simplex] = set()
    seen_ids: set[int] = set()
    for pos, step in enumerate(f.steps):
        if step.id in seen_ids:
            violations.append(f"step {pos}: duplicate step id {step.id}")
        seen_ids.add(step.id)
        s = step.simplex
        if step.is_add:
            if s in present:
                violations.append(f"step {pos}: add of {s.text()} already present")
            elif any(x not in present for x in s.faces()):
                violations.append(f"step {pos}: add of {s.text()} missing faces")
            present.add(s)
        else:
            if s not in present:
                violations.append(f"step {pos}: delete of {s.text()} not present")
            elif any(s in other.faces() for other in present
                     if other.dimension == s.dimension + 1):
                violations.append(f"step {pos}: delete of {s.text()} has cofaces")
            present.discard(s)
    if present:
        violations.append(f"end: final complex not empty ({len(present)} simplices)")
    if len(f.steps) % 2 != 0:
        violations.append("end: odd number of steps")
    return violations


POOL = [0, 1, 2, 3, 4]
CANDIDATES = [Simplex(c) for c in ((0,), (4,), (0, 1), (1, 4), (0, 1, 2), (2, 3, 4))]
CORRUPTIONS = {
    "duplicate add": "already present",
    "absent delete": "not present",
    "delete with cofaces": "has cofaces",
    "missing faces": "missing faces",
    "duplicate step id": "duplicate step id",
    "odd length": "odd number of steps",
}


def corrupt(f: ZigzagFiltration, kind: str, rng: random.Random) -> ZigzagFiltration:
    """f with one corruption of the given kind, or f itself if it has no site."""
    steps = list(f.steps)
    m = len(steps)
    if m < 2:
        return f
    out = f.copy()
    if kind == "duplicate add":
        adds = [j for j, s in enumerate(steps) if s.is_add]
        if not adds:
            return f
        j = rng.choice(adds)
        steps.insert(j + 1, out.new_step(ADD, steps[j].simplex))
    elif kind == "absent delete":
        j = rng.randrange(m + 1)
        cx = f.complex_at(j)
        absent = [s for s in CANDIDATES if s not in cx]
        if not absent:
            return f
        steps.insert(j, out.new_step(DELETE, rng.choice(absent)))
    elif kind == "delete with cofaces":
        sites = []
        for j in range(m + 1):
            cx = f.complex_at(j).simplices
            sites += [(j, s) for s in sorted(cx) if any(s in t.faces() for t in cx)]
        if not sites:
            return f
        j, s = rng.choice(sites)
        steps.insert(j, out.new_step(DELETE, s))
    elif kind == "missing faces":
        j = rng.randrange(m + 1)
        cx = f.complex_at(j)
        missing = [s for s in CANDIDATES if s not in cx and not cx.can_add(s)]
        if not missing:
            return f
        steps.insert(j, out.new_step(ADD, rng.choice(missing)))
    elif kind == "duplicate step id":
        j, k = rng.sample(range(m), 2)
        steps[j] = Step(steps[k].id, steps[j].direction, steps[j].simplex)
    else:
        del steps[rng.randrange(m)]
    out.steps = steps
    return out


if given is not None:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.lists(st.sampled_from(sorted(CORRUPTIONS)), max_size=3))
    def test_validate_matches_the_scan_reference(seed, kinds):
        rng = random.Random(seed)
        f = random_filtration(rng, POOL, dim_cap=2, max_simplices=10, max_length=24)
        assert f.validate() == reference_validate(f) == []
        if len(f.steps) < 2:
            return
        stacked = f
        for kind in kinds:
            once = corrupt(f, kind, rng)
            msgs = once.validate()
            assert msgs == reference_validate(once)
            if once is not f:
                assert any(CORRUPTIONS[kind] in msg for msg in msgs)
            stacked = corrupt(stacked, kind, rng)
            assert stacked.validate() == reference_validate(stacked)


def replay(steps) -> set:
    """The simplices after steps, as plain set additions and removals."""
    out: set = set()
    for step in steps:
        (out.add if step.is_add else out.discard)(step.simplex)
    return out


if given is not None:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 40))
    def test_complex_at_is_a_replay_after_edits_and_corruptions(seed, n_ops):
        # the index is built first, so every op after that edits it in place
        rng = random.Random(seed)
        f = random_filtration(rng, POOL, dim_cap=2, max_simplices=10, max_length=24)
        f.index()
        for sop in random_script(f, n_ops, seed=seed, vertex_pool=POOL, max_length=40):
            apply_to_filtration(f, sop)
        assert all(f.complex_at(j).simplices == replay(f.steps[:j])
                   for j in range(len(f.steps) + 1))
        for kind in sorted(CORRUPTIONS):
            bad = corrupt(f, kind, rng)
            assert all(bad.complex_at(j).simplices == replay(bad.steps[:j])
                       for j in range(len(bad.steps) + 1))


class TestComplexAt:
    def test_replay(self, tri):
        assert tri.complex_at(3).frozen() == frozenset(
            {simplex(0), simplex(1), simplex(0, 1)})

    def test_ends_empty(self, tri):
        assert len(tri.complex_at(0)) == 0
        assert len(tri.complex_at(6)) == 0

    def test_out_of_range(self, tri):
        with pytest.raises(ContractViolation):
            tri.complex_at(7)


class TestBirthDeathOrders:
    def test_birth_forward_clause(self, tri):
        # step 1 adds a simplex, so the earlier birth position comes first
        assert tri.birth_order_less(1, 2)

    def test_birth_backward_clause(self, tri):
        # step 3 is a deletion, so position 4 precedes position 1
        assert tri.birth_order_less(4, 1)

    def test_death_forward_clause(self, tri):
        assert tri.death_order_less(2, 4)

    def test_death_backward_clause(self, tri):
        assert tri.death_order_less(5, 4)

    def test_equal_positions_rejected(self, tri):
        with pytest.raises(ContractViolation):
            tri.birth_order_less(2, 2)

    def test_orders_are_strict_and_total(self, rng):
        for _ in range(25):
            f = random_filtration(rng, [0, 1, 2, 3], dim_cap=2,
                                  max_simplices=8, max_length=20)
            m = len(f.steps)
            if m < 4:
                continue
            positions = range(1, m)
            for less in (f.birth_order_less, f.death_order_less):
                for x in positions:
                    for y in positions:
                        if x == y:
                            continue
                        assert less(x, y) != less(y, x)
                # transitivity via sorting twice
                import functools
                key = functools.cmp_to_key(
                    lambda a, b: -1 if less(a, b) else 1)
                once = sorted(positions, key=key)
                assert sorted(once, key=key) == once


class TestTextFormat:
    def test_roundtrip(self, tri):
        again = ZigzagFiltration.from_text(tri.to_text())
        assert again.moves() == tri.moves()

    def test_comments_and_blanks(self):
        f = ZigzagFiltration.from_text("# header\n\ni 0  # add a vertex\nd 0\n")
        assert f.moves() == [("i", (0,)), ("d", (0,))]

    def test_parse_error_carries_line(self):
        with pytest.raises(ContractViolation, match="line 2"):
            ZigzagFiltration.from_text("i 0\nx 1\n")

    def test_step_ids_stable_and_unique(self, tri):
        ids = [s.id for s in tri.steps]
        assert len(set(ids)) == len(ids)
