"""Barcodes via conversion to a non-zigzag filtration of Delta-complex cells.

A zigzag filtration is rewritten as a cell-wise ascending filtration: one
cone vertex, one copy cell per addition (in order), one cone cell per
deletion (in reverse order).  convert gives only what the reduction and
the way back read: the cells' boundary columns and the index bijection
phi.  Standard column reduction of those columns gives a
creator/destroyer pairing which map_intervals takes back through phi to
the zigzag barcode.  With in-place repairs of the reduced matrix this is
an incremental engine for six of the eight operations: built once from
convert's columns and phi by reduce, it then keeps only the reduced
matrix (with V) and phi, and maps the matrix's pivot map back through
map_intervals.  A same-direction switch transposes two cells
(transpose); an inward expansion inserts its copy and cone cells where
they belong, and an inward contraction removes them (insert, remove),
each repaired by the column additions of Cohen-Steiner, Edelsbrunner &
Morozov's vineyard transpositions; phi is spliced, never recomputed.
The from-scratch oracle used throughout the test suite,
barcode_from_scratch, needs only the pairing: one validating pass
numbers the positions as phi does and builds the columns there, which it
reduces with clearing, sharing only the pair-to-bar map map_intervals
with the engine it cross-checks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Optional

from .chains import Simplex
from .errors import ContractViolation, IllegalTransposition, UnsupportedOnFzzPath
from .filtration import ADD, Step, ZigzagFiltration
from .ops import check, edit
from .results import OpResult

def convert(filtration: ZigzagFiltration) -> tuple[list[int], list[int], list[Optional[int]]]:
    """Rewrite a valid zigzag filtration as the ascending cell filtration:
    its boundary columns as int bitmasks at phi's positions (the cone
    vertex at 0, the k-th addition's copy at k, then the cones in reverse
    deletion order), phi and phi_inv."""
    if not filtration.is_valid():
        raise _invalid(filtration)
    columns = [0]
    faces: list[list[int]] = [[]]  # position -> its copy's faces' copies
    live: dict[Simplex, int] = {}  # simplex -> its copy's position
    deleted: list[int] = []  # the deleted simplices' copies, in deletion order
    for step in filtration.steps:
        if step.is_add:
            live[step.simplex] = len(columns)
            faces.append([live[f] for f in step.simplex.faces()])
            columns.append(sum(1 << q for q in faces[-1]))
        else:
            deleted.append(live.pop(step.simplex))
    # a cone's faces are its copy and the cones of the copy's faces, which
    # are deleted later and so coned earlier; a vertex's cone meets the apex
    cone_of: dict[int, int] = {}
    for copy in reversed(deleted):
        cone_of[copy] = len(columns)
        col = 1 << copy if faces[copy] else 1 << copy | 1
        for q in faces[copy]:
            col |= 1 << cone_of[q]
        columns.append(col)
    return columns, *_phi(filtration.steps)


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
    """R = D*V column reduction over Z2 with transposition, insertion and
    removal repairs.

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
            self._settle(j)

    def __len__(self) -> int:
        return len(self.D)

    @staticmethod
    def _low(col: int) -> int:
        return col.bit_length() - 1  # -1 for the zero column

    def low(self, j: int) -> int:
        return self._low(self.R[j])

    def _settle(self, c: int) -> int:
        """Reduce column c, whose pivot low_inv does not hold, until its
        lowest one is free or it is zero; returns the column additions.
        When a later column holds the pivot, the earlier column keeps it:
        the later one is reduced by c and continues in its place."""
        R, V, low_inv = self.R, self.V, self.low_inv
        adds = 0
        while R[c]:
            r = R[c].bit_length() - 1
            k = low_inv.get(r)
            if k is None:
                low_inv[r] = c
                break
            adds += 1
            if k > c:
                low_inv[r] = c
                R[k] ^= R[c]
                V[k] ^= V[c]
                c = k
            else:
                R[c] ^= R[k]
                V[c] ^= V[k]
        return adds

    def pairs(self) -> list[tuple[int, int]]:
        """(creator position, destroyer position) pairs."""
        return sorted((self._low(c), j) for j, c in enumerate(self.R) if c)

    def unpaired(self) -> list[int]:
        destroyed = {self._low(c) for c in self.R if c}
        return [j for j, c in enumerate(self.R) if not c and j not in destroyed]

    def transpose(self, i: int) -> None:
        """Swap the cells at positions i and i + 1 and repair the reduction
        (Cohen-Steiner, Edelsbrunner & Morozov's vineyard transposition).
        The pivots of the touched columns (i, i + 1 and the holders of rows
        i and i + 1) are dropped, V is kept upper triangular, the two
        columns swap, and so do rows i and i + 1 in the columns >= i: no
        earlier column can hold those rows, because D and R are strictly and
        V unit upper triangular.  Then _settle reduces the touched columns
        in increasing order.  Raises IllegalTransposition, with nothing
        changed, if the cell at i is a face of the cell at i + 1."""
        D, R, V, low_inv = self.D, self.R, self.V, self.low_inv
        j = i + 1
        if (D[j] >> i) & 1:
            raise IllegalTransposition(f"cell {i} is a boundary face of cell {j}")
        touched = {i, j} | {low_inv[r] for r in (i, j) if r in low_inv}
        for c in touched:
            if R[c]:
                del low_inv[self._low(R[c])]
        if (V[j] >> i) & 1:
            V[j] ^= V[i]
            R[j] ^= R[i]
        both = 3 << i
        for mat in (D, R, V):
            mat[i], mat[j] = mat[j], mat[i]
            for c in range(i, len(mat)):
                col = mat[c]
                part = col & both
                if part and part != both:
                    mat[c] = col ^ both
        for c in sorted(touched):
            self._settle(c)

    def insert(self, p: int, boundary: int) -> int:
        """Insert a new cell at position p, with its boundary in rows < p;
        returns the column additions.  The cells at p and after move up one
        place, so their rows' bits move up one in the columns >= p: no other
        column can hold those rows, because D and R are strictly and V unit
        upper triangular.  The new row is empty in D and in no V, so every
        old column stays reduced, and only the new one is reduced.  Raises
        ContractViolation, with nothing changed, if the boundary has a row
        >= p."""
        if boundary >> p:
            raise ContractViolation(f"a cell inserted at {p} cannot have cell "
                                    f"{boundary.bit_length() - 1} as a face")
        rows = -1 << p  # the rows >= p
        for mat in (self.D, self.R, self.V):
            # adding a column's bits at those rows to it doubles them
            mat[p:] = [col + (col & rows) for col in mat[p:]]
        self.D.insert(p, boundary)
        self.R.insert(p, boundary)
        self.V.insert(p, 1 << p)
        self.low_inv = {r + (r >= p): c + (c >= p) for r, c in self.low_inv.items()}
        return self._settle(p)

    def remove(self, p: int) -> int:
        """Remove the cell at position p, a face of no present cell; returns
        the column additions.  Row p is empty in D, so also in R, and only
        V holds it: each later column whose V has bit p gets column p added,
        which clears the bit.  Then column p is dropped, the rows after p
        move down one in the columns after it, and the columns that took
        column p are reduced again in increasing order.  Raises
        ContractViolation, with nothing changed, if the cell is a face of
        another cell."""
        D, R, V = self.D, self.R, self.V
        rest, row = range(p + 1, len(D)), 1 << p
        coface = next((c for c in rest if D[c] & row), None)
        if coface is not None:
            raise ContractViolation(f"cell {p} is a face of cell {coface}")
        touched = [c for c in rest if V[c] & row]
        low_inv = self.low_inv
        for c in (p, *touched):  # drop the pivots that the additions change
            if R[c]:
                del low_inv[self._low(R[c])]
        for c in touched:
            R[c] ^= R[p]
            V[c] ^= V[p]
        rows = -1 << p
        for mat in (D, R, V):
            del mat[p]
            # row p is empty: subtracting a column's bits at rows > p, moved
            # down one, halves them
            mat[p:] = [col - ((col >> 1) & rows) for col in mat[p:]]
        self.low_inv = {r - (r > p): c - (c > p) for r, c in low_inv.items()}
        adds = len(touched)
        for c in touched:
            adds += self._settle(c - 1)
        return adds


def reduce(columns: list[int]) -> tuple[ReducedMatrix, list[tuple[int, int]]]:
    """Reduce the boundary columns; return the matrix plus the pairing."""
    matrix = ReducedMatrix(columns)
    pairs = matrix.pairs()
    if matrix.unpaired() != [0]:
        raise AssertionError("expected the cone vertex to be the only unpaired creator")
    return matrix, pairs


def map_intervals(pairs: Iterable[tuple[int, int]], phi_inv: list[Optional[int]],
                  steps: list[Step]) -> list[tuple[int, int, int]]:
    """Map (creator, destroyer) position pairs back to the zigzag barcode,
    sorted, as (dim, birth, death)."""
    out = []
    for creator_pos, destroyer_pos in pairs:
        x = phi_inv[creator_pos]
        y = phi_inv[destroyer_pos]
        if x is None or y is None:
            raise AssertionError("the cone vertex cannot appear in a finite pair")
        if x < y:
            birth, death, creator = x + 1, y, x
        else:
            birth, death, creator = y + 1, x, y
        step = steps[creator]
        # an addition creates in its simplex's dimension, a deletion one lower
        dim = len(step.simplex) - (1 if step.direction == ADD else 2)
        out.append((dim, birth, death))
    out.sort()
    return out


def barcode_from_scratch(filtration: ZigzagFiltration,
                         validate: bool = True) -> list[tuple[int, int, int]]:
    """The from-scratch oracle: convert's pairing, mapped back, without
    cells or V.  _oracle_columns builds the boundary columns in one
    validating pass; they are then reduced with clearing."""
    steps = filtration.steps
    if not steps:
        return []
    cols, by_dim, phi_inv = _oracle_columns(filtration, validate)
    low_inv = _clear_reduce(cols, by_dim)
    if 2 * len(low_inv) != len(steps) or 0 in low_inv:
        raise AssertionError("expected the cone vertex to be the only unpaired creator")
    return map_intervals(low_inv.items(), phi_inv, steps)


def _oracle_columns(filtration: ZigzagFiltration, validate: bool
                    ) -> tuple[list[int], dict[int, list[int]], list[Optional[int]]]:
    """The oracle's boundary columns as bit sets, their positions by cell
    dimension, and phi_inv, for a filtration with at least one step.  One
    pass over the steps numbers the positions as _phi does (the k-th
    addition's copy at k, the k-th deletion's cone at m + 1 - k), builds
    the columns there and checks each step as validate() does, which it
    calls only to word the error (validate=False skips the checks the
    columns do not need: step ids, re-adds and the end)."""
    steps = filtration.steps
    m = len(steps)
    if validate and len({step.id for step in steps}) != m:
        raise _invalid(filtration)
    phi_inv: list[Optional[int]] = [None] * (m + 1)
    copy = 0  # the last addition's copy position
    cone = m + 1  # the last deletion's cone position
    cols = [0] * (m + 1)
    by_dim: dict[int, list[int]] = defaultdict(list)  # positions by cell dimension
    live: dict[Simplex, int] = {}  # simplex -> its copy's position
    faces_of: dict[int, list[int]] = {}  # copy position -> its faces' copies
    cofaces = [0] * (m + 1)  # copy position -> how many live cofaces it has
    cones: list[tuple[int, int, int]] = []  # (cone, copy, cone dim), by deletion
    for j, step in enumerate(steps):
        s = step.simplex
        if step.direction == ADD:
            if validate and s in live:
                raise _invalid(filtration)
            copy += 1
            pos = live[s] = copy
            phi_inv[pos] = j
            try:
                faces = faces_of[pos] = [live[f] for f in s.faces()]
            except KeyError:
                raise _invalid(filtration) from None
            col = 0
            for q in faces:
                col |= 1 << q
                cofaces[q] += 1
            cols[pos] = col
            by_dim[len(s) - 1].append(pos)
        else:
            pos = live.pop(s, None)
            if pos is None or cofaces[pos]:
                raise _invalid(filtration)
            for q in faces_of[pos]:
                cofaces[q] -= 1
            cone -= 1
            phi_inv[cone] = j
            cones.append((cone, pos, len(s)))
    if validate and (live or m % 2):
        raise _invalid(filtration)
    # a cone's faces are its base and the cones of the base's faces, which
    # are deleted later and so coned earlier; a vertex's cone meets the apex
    cone_of: dict[int, int] = {}
    for cone, pos, dim in reversed(cones):
        cone_of[pos] = cone
        col = 1 << pos if dim > 1 else (1 << pos) | 1
        for q in faces_of[pos]:
            col |= 1 << cone_of[q]
        cols[cone] = col
        by_dim[dim].append(cone)
    return cols, by_dim, phi_inv


def _clear_reduce(cols: list[int], by_dim: dict[int, list[int]]) -> dict[int, int]:
    """Reduce the columns in place, by dimension from the highest and by
    position within one, and return each lowest one's row -> its column.
    A column whose position is already such a row creates a class, so it
    reduces to zero: it is cleared, not reduced (the twist)."""
    low_inv: dict[int, int] = {}
    for dim in sorted(by_dim, reverse=True):
        for j in by_dim[dim]:
            if j in low_inv:
                continue
            col = cols[j]
            while col:
                r = col.bit_length() - 1
                k = low_inv.get(r)
                if k is None:
                    low_inv[r] = j
                    break
                col ^= cols[k]
            cols[j] = col
    return low_inv


def _invalid(filtration: ZigzagFiltration) -> ContractViolation:
    return ContractViolation("invalid filtration: " + "; ".join(filtration.validate()))


# ----------------------------------------------------------------------
# incremental engine for the six transposition-compatible operations


class FzzEngine:
    """Maintains the reduction of the converted filtration, and the index
    bijection phi, across edits."""

    def __init__(self, filtration: ZigzagFiltration):
        self.filtration = filtration.copy()
        columns, self.phi, self.phi_inv = convert(self.filtration)
        self.matrix, _ = reduce(columns)

    def barcode(self) -> list[tuple[int, int, int]]:
        """The zigzag barcode, read from the reduced matrix's pivot map
        (each lowest one's row -> its column, i.e. creator -> destroyer),
        which transpose, insert and remove keep exact."""
        return map_intervals(self.matrix.low_inv.items(), self.phi_inv,
                             self.filtration.steps)

    def apply(self, op: str, position: int, sigma: Optional[Simplex] = None) -> OpResult:
        """Run one of the eight operations by its script name: oe and oc are
        not on this path; any other op is checked, its update rule repairs
        the matrix and phi on the unedited filtration, and the filtration is
        edited."""
        if op in ("oe", "oc"):
            raise UnsupportedOnFzzPath(op, position)
        f = self.filtration
        check(f, op, position, sigma)
        stats = _RULES[op](self, position, sigma)
        edit(f, op, position, sigma)
        return OpResult(op, position, stats=stats)

    def _transposed_switch(self, i: int, sigma: Optional[Simplex]) -> dict[str, int]:
        """Two additions' copies, or two deletions' cones, sit next to each
        other; swapping the steps transposes the two cells."""
        pos, other = sorted((self.phi[i - 1], self.phi[i]))
        if other != pos + 1:
            raise AssertionError("same-direction steps must map to adjacent cells")
        self.matrix.transpose(pos)
        return {"transpositions": 1}

    def _mixed_switch(self, i: int, sigma: Optional[Simplex]) -> dict[str, int]:
        """A copy and a cone keep their cells; only phi swaps."""
        phi, phi_inv = self.phi, self.phi_inv
        phi[i - 1], phi[i] = phi[i], phi[i - 1]
        phi_inv[phi[i - 1]] = i - 1
        phi_inv[phi[i]] = i
        return {}

    def _inward_expansion(self, i: int, sigma: Simplex) -> dict[str, int]:
        """Insert sigma's copy after the additions before i and its cone
        before the deletions before i, then splice phi.  A face's copy row
        is the phi of its live addition, its cone row the phi of its first
        deletion at or after i."""
        f = self.filtration
        steps, phi = f.steps, self.phi
        faces = set(sigma.faces())
        # a live face's last step before i is its addition, and its first
        # step at or after i its deletion
        copy_col = cones = 0
        todo = set(faces)
        for j in range(i - 1, -1, -1):
            if not todo:
                break
            if steps[j].simplex in todo:
                todo.discard(steps[j].simplex)
                copy_col |= 1 << phi[j]
        for k in range(i, len(steps)):
            if not faces:
                break
            if steps[k].simplex in faces:
                faces.discard(steps[k].simplex)
                cones |= 1 << phi[k]
        # the complex at i holds the additions before i less the deletions
        adds_before = (i + f.index().masks[i].bit_count()) // 2
        copy_at = 1 + adds_before
        cone_at = (len(steps) + 2) - (i - adds_before)
        adds = self.matrix.insert(copy_at, copy_col)
        # the faces' cones lie after the copy, which moved them up one place;
        # a vertex's cone meets the apex
        cone_col = cones << 1 | 1 << copy_at | (not sigma.dimension)
        adds += self.matrix.insert(cone_at, cone_col)
        # a position at or after copy_at moves up one, and one at or after
        # cone_at - 1 (cone_at once the copy is in) one more
        self.phi = [q + (q >= copy_at) + (q >= cone_at - 1) for q in phi]
        self.phi[i:i] = (copy_at, cone_at)
        self.phi_inv = [None] + [j + 2 * (j >= i) for j in self.phi_inv[1:]]
        self.phi_inv.insert(copy_at, i)
        self.phi_inv.insert(cone_at, i + 1)
        return {"transpositions": 0, "column_adds": adds}

    def _inward_contraction(self, i: int, sigma: Optional[Simplex]) -> dict[str, int]:
        """Remove sigma's cone, a face of no cell, then its copy, which the
        cone was the only coface of, and splice phi."""
        copy_at, cone_at = self.phi[i - 1], self.phi[i]
        adds = self.matrix.remove(cone_at)
        adds += self.matrix.remove(copy_at)
        del self.phi[i - 1:i + 1]
        self.phi = [q - (q > copy_at) - (q > cone_at) for q in self.phi]
        del self.phi_inv[cone_at]
        del self.phi_inv[copy_at]
        self.phi_inv = [None] + [j - 2 * (j > i) for j in self.phi_inv[1:]]
        return {"transpositions": 0, "column_adds": adds}


_RULES = {"fs": FzzEngine._transposed_switch, "bs": FzzEngine._transposed_switch,
          "os": FzzEngine._mixed_switch, "is": FzzEngine._mixed_switch,
          "ie": FzzEngine._inward_expansion, "ic": FzzEngine._inward_contraction}
