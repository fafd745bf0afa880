"""Hodge diamonds with first-class unknown entries.

A diamond of complex dimension m is the (p,q)-indexed grid of cohomological
dimensions for 0 <= p,q <= m.  Entries are natural numbers or Unknown (the
grids transcribed from sheaf-cohomology runs that ran out of memory have
holes); any aggregate over a diamond with relevant unknowns fails loudly
instead of guessing.

Row form: row r (from the top, 0 <= r <= 2m) lists the entries with
p + q = r, p decreasing left to right.  Smooth compactification diamonds are
flagged ``symmetric_smooth`` and validated against h^{p,q} = h^{q,p} =
h^{m-p,m-q}; the singular-variety grids carry no such flag because nothing
guarantees those symmetries for them.

Each diamond knows which cells make up its displayed "middle row" (used by
the vanishing-cycle check); fixtures pin this explicitly because the
convention is ambiguous for even-dimensional displays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "HodgeDiamond",
    "IncompleteDiamondError",
    "diamond_pn_pn_dual",
    "euler_from_diamond",
    "lefschetz_restrict",
    "vanishing_cycle_obstruction",
    "render_diamond",
    "FIXTURES",
    "fixture",
    "diamond_to_json",
    "diamond_from_json",
]

Entry = Optional[int]  # None encodes an unknown entry


class IncompleteDiamondError(Exception):
    """Raised when an aggregate needs entries that are unknown."""


def _row_cells(m: int, r: int) -> list[tuple[int, int]]:
    """Cells (p, q) with p+q = r on a dim-m diamond, p decreasing."""
    return [(p, r - p) for p in range(min(r, m), max(0, r - m) - 1, -1)]


@dataclass(frozen=True)
class HodgeDiamond:
    """An immutable (p,q) grid; ``grid[p][q]`` is an int or None."""

    complex_dim: int
    grid: tuple[tuple[Entry, ...], ...]
    middle_row_cells: tuple[tuple[int, int], ...]
    symmetric_smooth: bool = False

    def __post_init__(self):
        m = self.complex_dim
        if m < 0:
            raise ValueError("dimension must be >= 0")
        if len(self.grid) != m + 1 or any(len(row) != m + 1 for row in self.grid):
            raise ValueError("grid must be (m+1) x (m+1)")
        for row in self.grid:
            for e in row:
                if e is not None and (type(e) is not int or e < 0):
                    raise ValueError(f"entries are naturals or None, got {e!r}")
        for cell in self.middle_row_cells:
            if len(cell) != 2 or not all(type(i) is int and 0 <= i <= m for i in cell):
                raise ValueError(f"middle-row cell {cell!r} out of range")
        if self.symmetric_smooth:
            for p in range(m + 1):
                for q in range(m + 1):
                    a = self.grid[p][q]
                    if a != self.grid[q][p] or a != self.grid[m - p][m - q]:
                        raise ValueError(
                            "diamond flagged smooth-symmetric violates Hodge/Serre symmetry"
                        )

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_rows(rows, middle_row_cells=None, symmetric_smooth=False) -> "HodgeDiamond":
        """Build from top-to-bottom row lists; entries are naturals or '?', unconverted."""
        nrows = len(rows)
        if nrows % 2 == 0:
            raise ValueError("a diamond has an odd number of rows")
        m = nrows // 2
        grid = [[None] * (m + 1) for _ in range(m + 1)]
        for r, row in enumerate(rows):
            cells = _row_cells(m, r)
            if not isinstance(row, (list, tuple)):
                raise ValueError(f"row {r} is not a list of entries: {row!r}")
            if len(row) != len(cells):
                raise ValueError(
                    f"row {r} has {len(row)} entries, expected {len(cells)}"
                )
            for (p, q), e in zip(cells, row):
                grid[p][q] = None if e == "?" else e
        if middle_row_cells is None:
            middle_row_cells = tuple(_row_cells(m, m))
        return HodgeDiamond(
            m,
            tuple(tuple(row) for row in grid),
            tuple(tuple(c) for c in middle_row_cells),
            symmetric_smooth,
        )

    # -- access --------------------------------------------------------------

    def entry(self, p: int, q: int) -> Entry:
        return self.grid[p][q]

    def rows(self) -> list[list[Entry]]:
        m = self.complex_dim
        return [[self.grid[p][q] for p, q in _row_cells(m, r)] for r in range(2 * m + 1)]

    def fully_known(self) -> bool:
        return all(e is not None for row in self.grid for e in row)

    def unknown_cells(self) -> list[tuple[int, int]]:
        m = self.complex_dim
        return [
            (p, q)
            for p in range(m + 1)
            for q in range(m + 1)
            if self.grid[p][q] is None
        ]

    def entry_sum(self) -> int:
        if not self.fully_known():
            raise IncompleteDiamondError(
                f"insufficient data: unknown entries at {self.unknown_cells()}"
            )
        return sum(e for row in self.grid for e in row)  # type: ignore[misc]


def diamond_pn_pn_dual(n: int) -> HodgeDiamond:
    """The diamond of the product of P^n with its dual: n+1-|n-p| on the
    diagonal, zero elsewhere."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 2 * n
    grid = [[0] * (m + 1) for _ in range(m + 1)]
    for p in range(m + 1):
        grid[p][p] = n + 1 - abs(n - p)
    return HodgeDiamond(
        m,
        tuple(tuple(row) for row in grid),
        tuple(_row_cells(m, m)),
        symmetric_smooth=True,
    )


def euler_from_diamond(d: HodgeDiamond) -> int:
    """Alternating sum of all entries; refuses diamonds with holes."""
    if not d.fully_known():
        raise IncompleteDiamondError(
            f"insufficient data: unknown entries at {d.unknown_cells()}"
        )
    m = d.complex_dim
    return sum(
        (-1) ** (p + q) * d.grid[p][q]  # type: ignore[operator]
        for p in range(m + 1)
        for q in range(m + 1)
    )


def lefschetz_restrict(d: HodgeDiamond) -> HodgeDiamond:
    """Hyperplane-section diamond: one dimension down, entries below the
    middle copied, entries above filled by duality, the middle row unknown
    (the hyperplane theorem says nothing about it)."""
    m = d.complex_dim
    if m < 1:
        raise ValueError("cannot restrict a point")
    if not d.fully_known():
        raise IncompleteDiamondError("cannot restrict a diamond with unknown entries")
    mm = m - 1
    grid: list[list[Entry]] = [[None] * (mm + 1) for _ in range(mm + 1)]
    for p in range(mm + 1):
        for q in range(mm + 1):
            if p + q < mm:
                grid[p][q] = d.grid[p][q]
            elif p + q > mm:
                grid[p][q] = d.grid[mm - p][mm - q]
    return HodgeDiamond(
        mm, tuple(tuple(row) for row in grid), tuple(_row_cells(mm, mm))
    )


def vanishing_cycle_obstruction(d: HodgeDiamond) -> bool:
    """True iff every entry of the diamond's designated middle row is zero.

    An all-zero middle row leaves no room for vanishing cycles, so a
    Lefschetz-type extension of the potential with critical points is
    impossible (its fibration would need them).
    """
    missing = [c for c in d.middle_row_cells if d.grid[c[0]][c[1]] is None]
    if missing:
        raise IncompleteDiamondError(
            f"insufficient data: unknown middle-row entries at {missing}"
        )
    return all(d.grid[p][q] == 0 for p, q in d.middle_row_cells)


def render_diamond(d: HodgeDiamond) -> str:
    """Centred text diamond; '?' marks unknown entries."""
    rows = d.rows()
    cells = [["?" if e is None else str(e) for e in row] for row in rows]
    width = max((len(c) for row in cells for c in row), default=1)
    lines = [" ".join(c.center(width) for c in row) for row in cells]
    full = max(len(line) for line in lines)
    return "\n".join(line.center(full).rstrip() for line in lines)


# -- the transcribed grids ----------------------------------------------------

U = "?"


def _fx(rows, middle=None, symmetric=False):
    return HodgeDiamond.from_rows(rows, middle, symmetric)


#: Read-only library of the diamonds this package treats as ground truth.
#: The sl2/sl3 and K3 entries are honest Hodge diamonds of smooth projective
#: varieties; the fibre110/fibre321 grids are sheaf-cohomology tables of
#: singular compactifications, with entries nobody has computed left unknown.
FIXTURES: dict[str, HodgeDiamond] = {
    # projectivised sl(2) orbit: the quadric surface P^1 x P^1
    "sl2-orbit": _fx([[1], [0, 0], [0, 2, 0], [0, 0], [1]], symmetric=True),
    # projectivised regular fibre of the sl(2) fibration: P^1, no middle homology
    "sl2-fibre": _fx([[1], [0, 0], [1]], symmetric=True),
    # smooth compactification of the minimal sl(3) orbit
    "sl3-orbit": _fx(
        [
            [1],
            [0, 0],
            [0, 2, 0],
            [0, 0, 0, 0],
            [0, 0, 3, 0, 0],
            [0, 0, 0, 0],
            [0, 2, 0],
            [0, 0],
            [1],
        ],
        symmetric=True,
    ),
    # its compactified regular fibre; the all-zero length-4 row is the
    # middle row the vanishing-cycle argument refers to
    "sl3-fibre": _fx(
        [
            [1],
            [0, 0],
            [0, 2, 0],
            [0, 0, 0, 0],
            [0, 2, 0],
            [0, 0],
            [1],
        ],
        middle=[(3, 0), (2, 1), (1, 2), (0, 3)],
    ),
    # the K3 surface (quartic in P^3)
    "k3": _fx([[1], [0, 0], [1, 20, 1], [0, 0], [1]], symmetric=True),
    # regular fibre over 0 for H = H0 = diag(1,-1,0), compactified via the
    # generator-wise homogenisation of I = <p, q, f> ...
    "fibre110-i": _fx(
        [
            [1],
            [0, 0],
            [0, 1, 0],
            [0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 16, U, U, 16, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 1, 0],
            [0, 0],
            [1],
        ]
    ),
    # ... and via the homogenisation of J = <p, p-q, f>
    "fibre110-j": _fx(
        [
            [1],
            [0, 0],
            [0, 1, 0],
            [0, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 1, U, U, 1, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, 0],
            [0, 1, 0],
            [0, 0],
            [1],
        ]
    ),
    # singular fibre over 1 for H0 = diag(3,-1,-2), two homogenisations
    "fibre321-i": _fx(
        [
            [1],
            [0, 0],
            [0, 1, 0],
            [0, 0, 0, 0],
            [0, 0, U, 0, 0],
            [0, 16, U, U, 16, 0],
            [0, 0, U, 0, 0],
            [0, 0, 0, 0],
            [0, 1, 0],
            [0, 0],
            [1],
        ]
    ),
    "fibre321-j": _fx(
        [
            [1],
            [0, 0],
            [0, 1, 0],
            [0, 0, 0, 0],
            [0, 0, U, 0, 0],
            [0, 1, U, U, 1, 0],
            [0, 0, U, 0, 0],
            [0, 0, 0, 0],
            [0, 1, 0],
            [0, 0],
            [1],
        ]
    ),
}


def fixture(name: str) -> HodgeDiamond:
    try:
        return FIXTURES[name]
    except KeyError:
        known = ", ".join(sorted(FIXTURES))
        raise KeyError(f"no diamond named {name!r}; known: {known}") from None


# -- JSON ----------------------------------------------------------------------


def diamond_to_json(d: HodgeDiamond) -> str:
    rows = [["?" if e is None else e for e in row] for row in d.rows()]
    return json.dumps(
        {
            "dim": d.complex_dim,
            "rows": rows,
            "middle_row_cells": [list(c) for c in d.middle_row_cells],
        }
    )


def diamond_from_json(text: str) -> HodgeDiamond:
    """Read ``diamond_to_json``'s document; ValueError naming the bad field."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"a diamond is a JSON object, got {data!r}")
    for field in ("rows", "middle_row_cells"):
        items = data.get(field)
        if not isinstance(items, list) or not all(isinstance(x, list) for x in items):
            raise ValueError(f"{field} must be a list of lists, got {items!r}")
    d = HodgeDiamond.from_rows(data["rows"], data["middle_row_cells"])
    if data.get("dim") != d.complex_dim:
        raise ValueError("dim field disagrees with the row count")
    return d
