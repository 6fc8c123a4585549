"""Exact integer symmetric bilinear forms.

Everything here is arbitrary-precision: matrices hold Python ints, and a
form's determinant and signature come together from one fraction-free
Bareiss pass with symmetric pivoting per orthogonal component.  No float or
rational ever appears, so no overflow or rounding can occur at any input
size.  IntersectionForm.blocks is the one split of a form into contiguous
orthogonal blocks that the search, the residue and the kH and diagonal
checks read.

Forms can be described in a small text grammar::

    H                   one hyperbolic plane [[0,1],[1,0]]
    3H                  direct sum of three hyperbolic planes
    diag(1,-1,-1)       diagonal form
    matrix [[0,1],[1,0]]  explicit symmetric matrix

"""

from __future__ import annotations

import re
import string
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence


class FormError(ValueError):
    """Invalid construction or use of a form or matrix."""


class FormParseError(FormError):
    """Text that does not match the form grammar."""


class DegenerateFormError(FormError):
    """Raised when an operation needs a nonzero determinant."""


def _check_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormError(f"matrix entries must be integers, got {value!r}")
    return value


class IntegerMatrix:
    """Immutable dense matrix over the integers."""

    __slots__ = ("_data", "_rows", "_cols")

    def __init__(self, rows: Iterable[Iterable[int]]):
        data = tuple(tuple(_check_int(x) for x in row) for row in rows)
        self._rows = len(data)
        self._cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != self._cols:
                raise FormError("matrix rows must all have the same length")
        self._data = data

    @classmethod
    def _trusted(cls, data: tuple[tuple[int, ...], ...]) -> "IntegerMatrix":
        """A matrix on rows the caller built as equal-length tuples of ints."""
        m = cls.__new__(cls)
        m._data = data
        m._rows = len(data)
        m._cols = len(data[0]) if data else 0
        return m

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    def entry(self, i: int, j: int) -> int:
        return self._data[i][j]

    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._data

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self._data]

    @property
    def is_symmetric(self) -> bool:
        if self._rows != self._cols:
            return False
        return tuple(zip(*self._data)) == self._data

    def determinant(self) -> int:
        """Exact Bareiss determinant of a general, possibly non-symmetric, matrix."""
        if self._rows != self._cols:
            raise FormError("determinant needs a square matrix")
        n = self._rows
        if n == 0:
            return 1
        a = [list(row) for row in self._data]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot_row is None:
                    return 0
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    # exact division is guaranteed by the Bareiss identity
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self._data == other._data

    def __hash__(self) -> int:
        return hash(self._data)

    def __repr__(self) -> str:
        return f"IntegerMatrix({[list(r) for r in self._data]!r})"


def _bareiss_inertia(a: list[list[int]]) -> tuple[int, int]:
    """(determinant, negative eigenvalue count) of the symmetric rows a,
    by one Bareiss pass in integers; a is overwritten.

    A zero pivot is replaced by a nonzero active diagonal entry (rows and
    columns swapped together); when the whole active diagonal vanishes, row
    and column j are added to row and column i for some a[i][j] != 0, making
    2*a[i][j] the pivot.  Both moves are congruences of determinant 1 that
    fix the leading block, so the pivots are the leading minors D1, ..., Dn
    of one form congruent to a: Dn = det a, and by Jacobi's rule the sign
    changes along 1, D1, ..., Dn count the negative eigenvalues.  An
    all-zero active block means det a = 0, reported as (0, 0).
    """
    n = len(a)
    prev, negative = 1, 0
    for k in range(n):
        if a[k][k] == 0:
            active = range(k, n)
            i = next((i for i in active if a[i][i]), None)
            if i is None:
                pair = next(((i, j) for i in active for j in active if a[i][j]), None)
                if pair is None:
                    return 0, 0
                i, j = pair
                for t in active:
                    a[i][t] += a[j][t]
                for t in active:
                    a[t][i] += a[t][j]
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[i] = row[i], row[k]
        pivot = a[k][k]
        negative += (pivot < 0) != (prev < 0)
        for i in range(k + 1, n):
            for j in range(i, n):
                # exact division is guaranteed by the Bareiss identity
                a[i][j] = a[j][i] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
        prev = pivot
    return prev, negative


class IntersectionForm:
    """Symmetric integer matrix with cached structural metadata.

    Wraps an :class:`IntegerMatrix` and exposes the handful of invariants the
    obstruction engines need: parity, signature, determinant, unimodularity.
    Metadata is computed lazily and exactly.
    """

    def __init__(self, matrix: IntegerMatrix):
        if matrix.rows != matrix.cols:
            raise FormError("an intersection form must be square")
        if not matrix.is_symmetric:
            raise FormError("an intersection form must be symmetric")
        self._matrix = matrix

    @classmethod
    def hyperbolic(cls, k: int = 1) -> "IntersectionForm":
        """Direct sum of k copies of the hyperbolic plane."""
        if k < 1:
            raise FormError("hyperbolic sum needs k >= 1")
        n = 2 * k
        rows = []
        for i in range(n):
            row = [0] * n
            row[i ^ 1] = 1  # i's partner in its plane
            rows.append(tuple(row))
        return cls(IntegerMatrix._trusted(tuple(rows)))

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntersectionForm":
        if not entries:
            raise FormError("diagonal form needs at least one entry")
        n = len(entries)
        return cls(
            IntegerMatrix(
                [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)]
            )
        )

    @property
    def matrix(self) -> IntegerMatrix:
        return self._matrix

    @property
    def rank(self) -> int:
        return self._matrix.rows

    def evaluate(self, x: Sequence[int]) -> int:
        """Return Q(x, x)."""
        return self.pair(x, x)

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Return the bilinear pairing Q(x, y)."""
        n = self.rank
        if len(x) != n or len(y) != n:
            raise FormError(f"vectors must have length {n}")
        for v in x:
            _check_int(v)
        for v in y:
            _check_int(v)
        rows = self._matrix.entries()
        return sum(xi * sum(map(mul, row, y)) for xi, row in zip(x, rows) if xi)

    @cached_property
    def is_even(self) -> bool:
        """True when every diagonal entry is even (type II form)."""
        return all(self._matrix.entry(i, i) % 2 == 0 for i in range(self.rank))

    @cached_property
    def _components(self) -> list[list[int]]:
        """Index sets of the connected components of the off-diagonal graph,
        each ascending, ordered by their smallest index; found once per form."""
        rows = self._matrix.entries()
        seen: set[int] = set()
        components = []
        for start in range(self.rank):
            if start in seen:
                continue
            seen.add(start)
            component = [start]
            for i in component:  # component grows while it is walked
                for j, x in enumerate(rows[i]):
                    if x and j not in seen:
                        seen.add(j)
                        component.append(j)
            components.append(sorted(component))
        return components

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) of each contiguous orthogonal block, in order: the
        components' index spans, merged where they overlap."""
        spans: list[tuple[int, int]] = []
        for component in self._components:  # ordered by smallest index
            if spans and component[0] < spans[-1][1]:
                spans[-1] = (spans[-1][0], max(spans[-1][1], component[-1] + 1))
            else:
                spans.append((component[0], component[-1] + 1))
        return tuple(spans)

    @cached_property
    def _inertia(self) -> tuple[int, int]:
        """(determinant, negative eigenvalue count), one integer pass per component.

        Grouping each component's indices is a simultaneous permutation of
        rows and columns, which keeps the determinant and the inertia.  So
        the determinant is the product of the components' determinants, the
        negative count their sum, and a degenerate component makes the whole
        form degenerate, reported as (0, 0).  Components, not blocks, so
        that a permuted basis does not merge into one O(n^3) pass.
        """
        rows = self._matrix.entries()
        determinant, negative = 1, 0
        for component in self._components:
            d, neg = _bareiss_inertia([[rows[i][j] for j in component] for i in component])
            if d == 0:
                return 0, 0
            determinant *= d
            negative += neg
        return determinant, negative

    @property
    def determinant(self) -> int:
        return self._inertia[0]

    @cached_property
    def is_unimodular(self) -> bool:
        return self.determinant in (1, -1)

    @cached_property
    def signature(self) -> int:
        """Positive minus negative eigenvalues, read off the integer pass.

        Raises DegenerateFormError when the determinant vanishes.
        """
        determinant, negative = self._inertia
        if determinant == 0:
            raise DegenerateFormError("signature of a degenerate form is undefined")
        return self.rank - 2 * negative

    @cached_property
    def characteristic_residue(self) -> tuple[int, ...]:
        """The unique mod-2 class c with pairing(c, x) = q(x) mod 2 for all x.

        Solves (Q c)_i = Q_ii mod 2 by Gaussian elimination over GF(2), block
        by block: the system splits as the form does, so c is the blocks'
        solutions side by side.  On a unimodular form every block is
        unimodular and its system uniquely solvable.  Even forms give the
        zero vector.  Raises FormError for a form that is not unimodular.
        """
        if not self.is_unimodular:
            raise FormError("characteristic residue needs a unimodular form")
        entries = self._matrix.entries()
        residue: list[int] = []
        for a, b in self.blocks:
            n = b - a
            rows = [
                [v & 1 for v in row[a:b]] + [row[i] & 1] for i, row in enumerate(entries[a:b], a)
            ]
            pivots = 0
            for col in range(n):
                pivot = next((r for r in range(pivots, n) if rows[r][col]), None)
                if pivot is None:
                    # cannot happen for unimodular blocks: det is odd, so the
                    # mod-2 matrix is invertible
                    raise FormError("mod-2 system is singular despite unimodularity")
                rows[pivots], rows[pivot] = rows[pivot], rows[pivots]
                for other in range(n):
                    if other != pivots and rows[other][col]:
                        rows[other] = [x ^ y for x, y in zip(rows[other], rows[pivots])]
                pivots += 1
            residue.extend(row[n] for row in rows)
        return tuple(residue)

    @cached_property
    def hyperbolic_summands(self) -> int | None:
        """k when the form's blocks are k literal copies of H, else None.

        This is a syntactic check, not an isometry test: a form isometric to
        kH in a rotated or permuted basis is not recognized.
        """
        rows = self._matrix.entries()
        # a block holds every nonzero entry of its rows
        if all(tuple(row[a:b] for row in rows[a:b]) == ((0, 1), (1, 0)) for a, b in self.blocks):
            return len(self.blocks) or None
        return None

    def descriptor(self) -> str:
        """Canonical text form: "H", "kH", "diag(...)" or "matrix [[...]]"."""
        k = self.hyperbolic_summands
        if k == 1:
            return "H"
        if k is not None:
            return f"{k}H"
        rows = self._matrix.entries()
        if all(b - a == 1 for a, b in self.blocks):
            return "diag(" + ",".join(str(row[i]) for i, row in enumerate(rows)) + ")"
        inner = ",".join("[" + ",".join(map(str, row)) + "]" for row in rows)
        return f"matrix [{inner}]"

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntersectionForm):
            return NotImplemented
        return self._matrix == other._matrix

    def __hash__(self) -> int:
        return hash(self._matrix)

    def __repr__(self) -> str:
        return f"IntersectionForm({self.descriptor()!r})"


# The grammars take ASCII whitespace only: str.strip(), str.split() and \s
# without re.ASCII would also take Unicode spaces such as U+3000 and U+00A0.
_SPACE = string.whitespace
_INT_RE = re.compile(r"[+-]?[0-9]+")
_HYPERBOLIC_RE = re.compile(r"^([+-]?[0-9]+)?\s*H$", re.ASCII)
_DIAG_RE = re.compile(r"^diag\s*\((.*)\)$", re.DOTALL | re.ASCII)
_MATRIX_RE = re.compile(r"^matrix\s*(\[.*\])$", re.DOTALL | re.ASCII)


def _parse_int(text: str) -> int:
    text = text.strip(_SPACE)
    if not _INT_RE.fullmatch(text):
        raise FormParseError(f"expected an integer, got {text!r}")
    return int(text)


def _parse_matrix_literal(text: str) -> list[list[int]]:
    # whitespace goes only next to brackets and commas, so "1 2" stays one
    # piece and is rejected as an integer
    squeezed = re.sub(r"\s*([][,])\s*", r"\1", text, flags=re.ASCII)
    if not (squeezed.startswith("[[") and squeezed.endswith("]]")):
        raise FormParseError(f"malformed matrix literal: {text!r}")
    body = squeezed[2:-2]
    if "[" in body.replace("],[", "") or "]" in body.replace("],[", ""):
        raise FormParseError(f"malformed matrix literal: {text!r}")
    rows = []
    for chunk in body.split("],["):
        if not chunk:
            raise FormParseError("matrix rows must be nonempty")
        rows.append([_parse_int(piece) for piece in chunk.split(",")])
    return rows


def build_form(spec: str) -> IntersectionForm:
    """Parse a form descriptor.

    Grammar: ``kH`` (k >= 1), ``H``, ``diag(d1,...,dr)`` or
    ``matrix [[...],...]``.  Whitespace between tokens is ignored; integers
    are base 10 with an optional sign.
    """
    if not isinstance(spec, str):
        raise FormParseError("form descriptor must be a string")
    text = spec.strip(_SPACE)
    if not text:
        raise FormParseError("empty form descriptor")

    match = _HYPERBOLIC_RE.match(text)
    if match:
        k = int(match.group(1)) if match.group(1) is not None else 1
        if k < 1:
            raise FormParseError(f"hyperbolic sum needs k >= 1, got {k}")
        return IntersectionForm.hyperbolic(k)

    match = _DIAG_RE.match(text)
    if match:
        inner = match.group(1).strip(_SPACE)
        if not inner:
            raise FormParseError("diag(...) needs at least one entry")
        entries = [_parse_int(piece) for piece in inner.split(",")]
        return IntersectionForm.diagonal(entries)

    match = _MATRIX_RE.match(text)
    if match:
        rows = _parse_matrix_literal(match.group(1))
        matrix = IntegerMatrix(rows)
        if matrix.rows != matrix.cols:
            raise FormParseError("matrix literal must be square")
        if not matrix.is_symmetric:
            raise FormError("matrix literal must be symmetric")
        return IntersectionForm(matrix)

    raise FormParseError(f"unrecognized form descriptor: {spec!r}")
