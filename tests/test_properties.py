"""Property tests over random filtrations and scripts of all eight ops."""

from __future__ import annotations

import random

import pytest

from zzpers.errors import Exhausted
from zzpers.ops import EXPAND, TABLE, edit, violation
from zzpers.planner import (apply_to_filtration, invert_script, legal_ops_at,
                            random_filtration, random_script, state_from_filtration)
from zzpers.rep_updates import apply_op

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

POOL = [0, 1, 2, 3]
seeds = st.integers(0, 2**32 - 1)


def _filtration(seed: int):
    return random_filtration(random.Random(seed), POOL, dim_cap=2,
                             max_simplices=8, max_length=18)


@settings(max_examples=60, deadline=None)
@given(seeds, seeds, st.integers(1, 10))
def test_script_then_its_inverse_restores_everything(fseed, sseed, k):
    f = _filtration(fseed)
    try:
        script = random_script(f, k, seed=sseed, max_length=26)
    except Exhausted:
        assume(False)
    round_trip = script + invert_script(script)
    sim = f.copy()
    for sop in round_trip:
        apply_to_filtration(sim, sop)
    assert sim.moves() == f.moves()

    state = state_from_filtration(f)
    before = state.barcode()
    for sop in round_trip:
        apply_op(state, sop.op, sop.pos, sop.simplex)
    assert state.filtration.moves() == f.moves()
    assert state.barcode() == before
    assert state.check_certificate() == []


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_legal_ops_at_lists_exactly_the_legal_switches_and_contractions(fseed):
    f = _filtration(fseed)
    for pos in range(len(f.steps) + 1):
        listed = {o.op for o in legal_ops_at(f, pos, POOL, 2, allow_expand=False)}
        sigma = f.steps[pos - 1].simplex if 1 <= pos <= len(f.steps) - 1 else None
        legal = set()
        valid_after_edit = set()
        for op, spec in TABLE.items():
            if spec.shape == EXPAND:
                continue
            if violation(f, op, pos, sigma) is None:
                legal.add(op)
            # independently: the step kinds fit and the edited filtration is valid
            if sigma is not None and \
                    (f.steps[pos - 1].direction, f.steps[pos].direction) == spec.steps:
                sim = f.copy()
                edit(sim, op, pos, sigma)
                if sim.is_valid():
                    valid_after_edit.add(op)
        assert listed == legal == valid_after_edit
