"""One legality rule per operation: every path rejects an illegal op the
same way and leaves its state as it was."""

from __future__ import annotations

import pytest

from zzpers.errors import (ContractViolation, IllegalContraction, IllegalExpansion,
                           IllegalSwitch, UnsupportedOnFzzPath)
from zzpers.filtration import ADD, Step
from zzpers.fzz import FzzEngine, barcode_from_scratch
from zzpers.ops import check, violation
from zzpers.planner import ScriptOp, apply_to_filtration, state_from_filtration
from zzpers.rep_updates import apply_op

from conftest import filtration, simplex

TRI = ("+0", "+1", "+0.1", "-0.1", "-1", "-0")
SHORT = ("+0", "+1", "-1", "-0")
BLINK = ("+0", "+1", "-1", "+1", "-1", "-0")

ILLEGAL = [
    (TRI, "fs", 2, None, IllegalSwitch),  # the edge would precede its vertex
    (TRI, "bs", 4, None, IllegalSwitch),  # the vertex would go before its edge
    (TRI, "os", 3, None, IllegalSwitch),
    (BLINK, "is", 3, None, IllegalSwitch),
    (TRI, "fs", 3, None, ContractViolation),  # an addition then a deletion
    (TRI, "os", 9, None, ContractViolation),
    (TRI, "zz", 1, None, ContractViolation),
    (TRI, "ie", 2, None, ContractViolation),  # an expansion needs its simplex
    (TRI, "ie", 3, simplex(0, 1), IllegalExpansion),
    (TRI, "ie", 1, simplex(0, 1), IllegalExpansion),
    (TRI, "ie", 7, simplex(5), ContractViolation),
    (TRI, "oe", 3, simplex(0), IllegalExpansion),
    (TRI, "oe", 3, simplex(2), IllegalExpansion),
    (TRI, "oe", 2, None, ContractViolation),
    (TRI, "ic", 2, None, IllegalContraction),
    (SHORT, "ic", 2, simplex(7), IllegalContraction),  # not the pair's simplex
    (TRI, "oc", 2, None, IllegalContraction),
    (BLINK, "oc", 3, simplex(7), IllegalContraction),
]


def _planner(f, op, pos, sigma):
    sim = f.copy()
    try:
        apply_to_filtration(sim, ScriptOp(op, pos, sigma))
    finally:
        assert sim.moves() == f.moves()


def _rep(f, op, pos, sigma):
    state = state_from_filtration(f)
    before = state.barcode()
    try:
        apply_op(state, op, pos, sigma)
    finally:
        assert state.filtration.moves() == f.moves()
        assert state.barcode() == before
        assert state.check_certificate() == []


def _fzz(f, op, pos, sigma):
    engine = FzzEngine(f)
    before = engine.barcode()
    try:
        engine.apply(op, pos, sigma)
    finally:
        assert engine.filtration.moves() == f.moves()
        assert engine.barcode() == before == barcode_from_scratch(f)


@pytest.mark.parametrize("path", [_planner, _rep, _fzz], ids=["planner", "rep", "fzz"])
@pytest.mark.parametrize("moves, op, pos, sigma, error", ILLEGAL)
def test_illegal_op_raises_the_same_class_on_every_path(path, moves, op, pos, sigma, error):
    f = filtration(*moves)
    assert type(violation(f, op, pos, sigma)) is error
    if path is _fzz and op in ("oe", "oc"):
        error = UnsupportedOnFzzPath  # the engine has no outward expansion or contraction
    with pytest.raises(ContractViolation) as info:
        path(f, op, pos, sigma)
    assert type(info.value) is error


def test_expansion_check_reads_the_complex_at_i():
    # the complex an expansion is checked against is f's index at i, which
    # complex_at decodes and a copy builds afresh; other ops read none
    f = filtration(*TRI)
    read = []

    class Recording(list):
        def __getitem__(self, j):
            read.append(j)
            return super().__getitem__(j)

    index = f.index()
    index.masks = Recording(index.masks)
    assert check(f, "ie", 2, simplex(2)) is None and read == [2]
    assert check(f, "fs", 1, None) is None and read == [2]
    index.masks[2] |= index.after(0, Step(99, ADD, simplex(2)))
    assert simplex(2) in f.complex_at(2)
    with pytest.raises(IllegalExpansion, match="already present at position 2"):
        check(f, "ie", 2, simplex(2))
    fresh = f.copy()
    assert fresh._index is None
    assert check(fresh, "ie", 2, simplex(2)) is None and fresh._index is not None
