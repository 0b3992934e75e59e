"""Barcodes via conversion to a non-zigzag filtration of Delta-complex cells.

A zigzag filtration is rewritten as a cell-wise ascending filtration: one
cone vertex, one copy cell per addition (in order), one cone cell per
deletion (in reverse order).  Standard column reduction of the resulting
boundary matrix gives a creator/destroyer pairing which maps bijectively
back to the zigzag barcode.  This pipeline is both the from-scratch oracle
used throughout the test suite and, with transposition repairs on the
reduced matrix, an incremental engine for six of the eight operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partialmethod
from typing import Optional

from .chains import Simplex
from .errors import ContractViolation, IllegalTransposition, UnsupportedOnFzzPath
from .filtration import Step, ZigzagFiltration
from .ops import SWITCH, check, edit, spec
from .results import OpResult

OMEGA = "omega"
COPY = "copy"
CONE = "cone"


@dataclass
class DeltaCell:
    id: int
    dimension: int
    boundary: list[int]  # cell ids, duplicates allowed in principle
    tag: str
    simplex: Optional[Simplex] = None  # for COPY: the simplex this copies
    base: Optional[int] = None  # for CONE: id of the coned cell


@dataclass
class DeltaFiltration:
    """Cells in addition order plus the index bijection to the zigzag side."""
    cells: list[DeltaCell]
    phi: list[int]  # zigzag step index -> matrix position (1..m)
    phi_inv: list[Optional[int]]  # matrix position -> zigzag step index (None at 0)


def convert(filtration: ZigzagFiltration, validate: bool = True) -> DeltaFiltration:
    """Rewrite a valid zigzag filtration as the ascending cell filtration."""
    if validate:
        bad = filtration.validate()
        if bad:
            raise ContractViolation("invalid filtration: " + "; ".join(bad))
    next_id = 0

    def fresh() -> int:
        nonlocal next_id
        next_id += 1
        return next_id - 1

    omega = DeltaCell(fresh(), 0, [], OMEGA)
    cells = [omega]
    current: dict[Simplex, DeltaCell] = {}
    deletions: list[DeltaCell] = []
    for step in filtration.steps:
        s = step.simplex
        if step.is_add:
            cell = DeltaCell(fresh(), s.dimension,
                             [current[f].id for f in s.faces()],
                             COPY, simplex=s)
            current[s] = cell
            cells.append(cell)
        else:
            deletions.append(current.pop(s))
    cone_of: dict[int, int] = {}
    for base in reversed(deletions):
        if base.dimension == 0:
            bd = [base.id, omega.id]
        else:
            bd = [base.id] + [cone_of[f] for f in base.boundary]
        cone = DeltaCell(fresh(), base.dimension + 1, bd, CONE, base=base.id,
                         simplex=base.simplex)
        cone_of[base.id] = cone.id
        cells.append(cone)
    return DeltaFiltration(cells, *_phi(filtration.steps))


def _phi(steps: list[Step]) -> tuple[list[int], list[Optional[int]]]:
    """The index bijection: additions map to copies 1, 2, ... in order,
    deletions to cones m, m-1, ... in order; and its inverse."""
    m = len(steps)
    phi: list[int] = [0] * m
    adds = 0
    dels = 0
    for j, step in enumerate(steps):
        if step.is_add:
            phi[j] = 1 + adds
            adds += 1
        else:
            phi[j] = m - dels
            dels += 1
    phi_inv: list[Optional[int]] = [None] * (m + 1)
    for j, pos in enumerate(phi):
        phi_inv[pos] = j
    return phi, phi_inv


class ReducedMatrix:
    """R = D*V column reduction over Z2 with transposition repairs.

    Columns are int bitmasks; row r is the cell at position r.  V is upper
    triangular with unit diagonal, R has pairwise distinct lowest ones.
    """

    def __init__(self, boundary_columns: list[int]):
        self.D = list(boundary_columns)
        n = len(self.D)
        self.R = list(self.D)
        self.V = [1 << j for j in range(n)]
        self.low_inv: dict[int, int] = {}
        for j in range(n):
            self._reduce_column(j)

    def __len__(self) -> int:
        return len(self.D)

    @staticmethod
    def _low(col: int) -> int:
        return col.bit_length() - 1  # -1 for the zero column

    def low(self, j: int) -> int:
        return self._low(self.R[j])

    def _reduce_column(self, j: int) -> None:
        while self.R[j]:
            r = self._low(self.R[j])
            k = self.low_inv.get(r)
            if k is None:
                self.low_inv[r] = j
                return
            self.R[j] ^= self.R[k]
            self.V[j] ^= self.V[k]

    def pairs(self) -> list[tuple[int, int]]:
        """(creator position, destroyer position) pairs."""
        return sorted((self._low(c), j) for j, c in enumerate(self.R) if c)

    def unpaired(self) -> list[int]:
        destroyed = {self._low(c) for c in self.R if c}
        return [j for j, c in enumerate(self.R) if not c and j not in destroyed]

    def transpose(self, k: int) -> None:
        """Swap positions k and k+1, repairing the reduction in place."""
        self.move(k, k + 1)

    def move(self, src: int, dst: int) -> int:
        """Carry the cell at position src to dst by adjacent transpositions,
        repairing the reduction after each; returns how many it took.

        The cells passed over shift one place each, so over the whole move
        the rows between src and dst rotate by one.  The bits stay put until
        the move ends: rows are read through the rotation done so far, and a
        single pass over the columns >= min(src, dst) rotates them at the
        end.  No other column can hold those rows, because D and R have
        entries only above the diagonal and V is unit upper triangular.
        Raises IllegalTransposition, with nothing changed, if the cell would
        pass one of its faces or cofaces.
        """
        D, R, V, low_inv = self.D, self.R, self.V, self.low_inv
        up = dst > src
        if up:
            for c in range(src + 1, dst + 1):
                if (D[c] >> src) & 1:
                    raise IllegalTransposition(f"cell {c - 1} is a boundary face of cell {c}")
        else:
            faces = D[src] & ((1 << src) - (1 << dst))
            if faces:
                b = faces.bit_length() - 1
                raise IllegalTransposition(f"cell {b} is a boundary face of cell {b + 1}")
        lo, hi = min(src, dst), max(src, dst)
        below_src = (1 << src) - 1
        at = src  # where the moving cell is now; its row's bits sit at src

        def low(col: int) -> int:
            """The row of col's lowest one, read through the rotation so far."""
            b = col.bit_length() - 1
            if up:
                if b > at or b < src:
                    return b
                if b == src or (col >> src) & 1:
                    return at
                return b - 1
            if b < at or b > src:
                return b
            if b < src:
                return b + 1
            rest = (col & below_src).bit_length() - 1
            return rest + 1 if rest >= at else at

        for _ in range(hi - lo):
            i = at if up else at - 1
            j = i + 1
            # columns whose lowest one sits in a swapped row may need repair
            touched = {i, j}
            for r in (i, j):
                c = low_inv.get(r)
                if c is not None:
                    touched.add(c)
            for c in touched:  # drop the pre-swap pivots
                if R[c]:
                    del low_inv[low(R[c])]
            # row i is the moving cell's (bits at src) going up, and lies
            # below it, where no bit has moved, going down
            if (V[j] >> (src if up else i)) & 1:
                V[j] ^= V[i]
                R[j] ^= R[i]
            for mat in (D, R, V):
                mat[i], mat[j] = mat[j], mat[i]
            at = j if up else i
            for c in sorted(touched):
                while R[c]:
                    r = low(R[c])
                    k = low_inv.get(r)
                    if k is None:
                        low_inv[r] = c
                        break
                    if k > c:
                        # the earlier column keeps the pivot; keep reducing the later one
                        low_inv[r] = c
                        R[k] ^= R[c]
                        V[k] ^= V[c]
                        c = k
                        continue
                    R[c] ^= R[k]
                    V[c] ^= V[k]

        if hi > lo:
            block = (1 << (hi + 1)) - (1 << lo)
            for mat in (D, R, V):
                for c in range(lo, len(mat)):
                    col = mat[c]
                    part = col & block
                    if part:
                        if up:
                            moved = ((part >> 1) & block) | (((part >> lo) & 1) << hi)
                        else:
                            moved = ((part << 1) & block) | (((part >> hi) & 1) << lo)
                        mat[c] = col ^ part ^ moved
        return hi - lo

    def append_column(self, boundary: int) -> None:
        j = len(self.D)
        self.D.append(boundary)
        self.R.append(boundary)
        self.V.append(1 << j)
        self._reduce_column(j)

    def pop_column(self) -> None:
        """Drop the last column; entries at its row cannot exist in earlier ones."""
        j = len(self.D) - 1
        if self.R[j]:
            del self.low_inv[self._low(self.R[j])]
        self.D.pop()
        self.R.pop()
        self.V.pop()


def reduce(delta: DeltaFiltration) -> tuple[ReducedMatrix, list[tuple[int, int]]]:
    """Reduce the cell boundary matrix; return it plus the pairing."""
    pos_of = {cell.id: p for p, cell in enumerate(delta.cells)}
    columns = []
    for cell in delta.cells:
        col = 0
        for face in cell.boundary:
            col ^= 1 << pos_of[face]  # duplicated faces cancel over Z2
        columns.append(col)
    matrix = ReducedMatrix(columns)
    pairs = matrix.pairs()
    if matrix.unpaired() != [0]:
        raise AssertionError("expected the cone vertex to be the only unpaired creator")
    return matrix, pairs


def map_intervals(delta: DeltaFiltration,
                  pairs: list[tuple[int, int]],
                  steps: list[Step]) -> list[tuple[int, int, int]]:
    """Map the cell pairing back to the zigzag barcode as (dim, birth, death)."""
    out = []
    for creator_pos, destroyer_pos in pairs:
        x = delta.phi_inv[creator_pos]
        y = delta.phi_inv[destroyer_pos]
        if x is None or y is None:
            raise AssertionError("the cone vertex cannot appear in a finite pair")
        if x < y:
            birth, death, creator = x + 1, y, x
        else:
            birth, death, creator = y + 1, x, y
        step = steps[creator]
        dim = step.simplex.dimension if step.is_add else step.simplex.dimension - 1
        out.append((dim, birth, death))
    return sorted(out)


def barcode_from_scratch(filtration: ZigzagFiltration,
                         validate: bool = True) -> list[tuple[int, int, int]]:
    """convert -> reduce -> map: the from-scratch oracle."""
    if not filtration.steps:
        return []
    delta = convert(filtration, validate=validate)
    _, pairs = reduce(delta)
    return map_intervals(delta, pairs, filtration.steps)


# ----------------------------------------------------------------------
# incremental engine for the six transposition-compatible operations


class FzzEngine:
    """Maintains the converted filtration and its reduction across edits."""

    def __init__(self, filtration: ZigzagFiltration):
        self.filtration = filtration.copy()
        self._rebuild()

    def _rebuild(self) -> None:
        self.delta = convert(self.filtration)
        self.matrix, _ = reduce(self.delta)

    def barcode(self) -> list[tuple[int, int, int]]:
        return map_intervals(self.delta, self.matrix.pairs(), self.filtration.steps)

    def intervals_with_ids(self) -> dict[int, tuple[int, int, int]]:
        """Barcode keyed by the stable id of the creator cell."""
        out = {}
        for dim, birth, death in self.barcode():
            pos = self.delta.phi[birth - 1]
            out[self.delta.cells[pos].id] = (dim, birth, death)
        return out

    def _vines_identity(self) -> dict[int, object]:
        return {cid: cid for cid in self.intervals_with_ids()}

    def _move(self, src: int, dst: int) -> int:
        """Carry the cell at position src to dst by adjacent transpositions;
        returns how many it took."""
        count = self.matrix.move(src, dst)
        cells = self.delta.cells
        cells.insert(dst, cells.pop(src))
        return count

    def _transposed_switch(self, op: str, i: int) -> OpResult:
        """Two additions' copies, or two deletions' cones, sit next to each
        other; swapping the steps transposes the two cells."""
        check(self.filtration, op, i)
        pos, other = sorted((self.delta.phi[i - 1], self.delta.phi[i]))
        if other != pos + 1:
            raise AssertionError("same-direction steps must map to adjacent cells")
        self._move(pos, pos + 1)
        edit(self.filtration, op, i)
        return OpResult(op, i, vines=self._vines_identity(),
                        stats={"transpositions": 1})

    def _mixed_switch(self, op: str, i: int) -> OpResult:
        """A copy and a cone keep their cells; only phi swaps."""
        check(self.filtration, op, i)
        edit(self.filtration, op, i)
        phi, phi_inv = self.delta.phi, self.delta.phi_inv
        phi[i - 1], phi[i] = phi[i], phi[i - 1]
        phi_inv[phi[i - 1]] = i - 1
        phi_inv[phi[i]] = i
        return OpResult(op, i, vines=self._vines_identity(), stats={})

    forward_switch = partialmethod(_transposed_switch, "fs")
    backward_switch = partialmethod(_transposed_switch, "bs")
    outward_switch = partialmethod(_mixed_switch, "os")
    inward_switch = partialmethod(_mixed_switch, "is")

    def inward_expansion(self, i: int, sigma: Simplex) -> OpResult:
        check(self.filtration, "ie", i, sigma)
        steps = self.filtration.steps
        m = len(steps)
        current = _current_cells(self.delta, steps, i)
        pos_of = {cell.id: p for p, cell in enumerate(self.delta.cells)}
        copy_cell = DeltaCell(_fresh_cell_id(self.delta), sigma.dimension,
                              [current[f].id for f in sigma.faces()],
                              COPY, simplex=sigma)
        col = 0
        for face in copy_cell.boundary:
            col ^= 1 << pos_of[face]
        self.delta.cells.append(copy_cell)
        self.matrix.append_column(col)
        copy_pos = len(self.delta.cells) - 1
        if copy_cell.dimension == 0:
            cone_bd = [copy_cell.id, self.delta.cells[0].id]
            cone_col = (1 << copy_pos) | 1
        else:
            cone_of = _cone_index(self.delta)
            cone_bd = [copy_cell.id] + [cone_of[f] for f in copy_cell.boundary]
            cone_col = 1 << copy_pos
            for face in cone_bd[1:]:
                cone_col ^= 1 << pos_of[face]
        cone_cell = DeltaCell(_fresh_cell_id(self.delta), sigma.dimension + 1,
                              cone_bd, CONE, base=copy_cell.id, simplex=sigma)
        self.delta.cells.append(cone_cell)
        self.matrix.append_column(cone_col)

        # move both cells to their proper positions
        adds_before = sum(1 for s in steps[:i] if s.is_add)
        dels_before = i - adds_before
        transpositions = self._move(copy_pos, 1 + adds_before)
        transpositions += self._move(copy_pos + 1, (m + 2) - dels_before)
        edit(self.filtration, "ie", i, sigma)
        self.delta.phi, self.delta.phi_inv = _phi(steps)
        return OpResult("ie", i, vines=self._vines_identity(),
                        stats={"transpositions": transpositions})

    def inward_contraction(self, i: int, sigma: Optional[Simplex] = None) -> OpResult:
        check(self.filtration, "ic", i, sigma)
        steps = self.filtration.steps
        end = len(self.delta.cells) - 1
        # cone first, then the copy, each to the end
        transpositions = self._move(self.delta.phi[i], end)
        transpositions += self._move(self.delta.phi[i - 1], end - 1)
        for _ in range(2):
            self.matrix.pop_column()
            self.delta.cells.pop()
        edit(self.filtration, "ic", i)
        self.delta.phi, self.delta.phi_inv = _phi(steps)
        return OpResult("ic", i, vines=self._vines_identity(),
                        stats={"transpositions": transpositions})

    def outward_expansion(self, i: int, sigma: Simplex) -> OpResult:
        raise UnsupportedOnFzzPath("oe", i)

    def outward_contraction(self, i: int, sigma: Optional[Simplex] = None) -> OpResult:
        raise UnsupportedOnFzzPath("oc", i)

    def apply(self, op: str, position: int, sigma: Optional[Simplex] = None) -> OpResult:
        """Run one of the eight operations by its script name."""
        if spec(op).shape == SWITCH:
            return _APPLY[op](self, position)
        return _APPLY[op](self, position, sigma)


_APPLY = {"fs": FzzEngine.forward_switch, "bs": FzzEngine.backward_switch,
          "os": FzzEngine.outward_switch, "is": FzzEngine.inward_switch,
          "oe": FzzEngine.outward_expansion, "ie": FzzEngine.inward_expansion,
          "oc": FzzEngine.outward_contraction, "ic": FzzEngine.inward_contraction}


def _fresh_cell_id(delta: DeltaFiltration) -> int:
    return 1 + max(cell.id for cell in delta.cells)


def _cone_index(delta: DeltaFiltration) -> dict[int, int]:
    return {cell.base: cell.id for cell in delta.cells if cell.tag == CONE}


def _current_cells(delta: DeltaFiltration, steps: list[Step], upto: int) -> dict[Simplex, DeltaCell]:
    """The copy cell currently standing for each simplex present at position upto.

    Each addition step's copy sits at its phi position, so the replay looks
    cells up by position.
    """
    current: dict[Simplex, DeltaCell] = {}
    for j, step in enumerate(steps[:upto]):
        if step.is_add:
            current[step.simplex] = delta.cells[delta.phi[j]]
        else:
            current.pop(step.simplex)
    return current
