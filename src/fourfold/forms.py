"""Exact integer symmetric bilinear forms.

Everything here is arbitrary-precision: matrices hold Python ints, and a
form's determinant and signature come together from one fraction-free
Bareiss pass with symmetric pivoting per orthogonal component.  No float or
rational ever appears, so no overflow or rounding can occur at any input
size.  A form holds only its contiguous orthogonal blocks,
IntersectionForm.block_rows, which every reader of the form reads, each
distinct block once; every form builds its dense view of them on first read.

Every integer the grammars take is read by read_int.  A comma-separated
list is read by the reader of the shape its field stores: read_ints splits
the short dense vectors, diag entries and w2, and int() reads each piece;
read_sparse_ints scans the rows that can be wide and mostly zero, rel rows
and a matrix literal's rows, for the pieces that are not all zeros, so such
a row costs its nonzero entries.  Both send a text they refuse to read_int
piece by piece (_refuse), which writes the message.

Forms can be described in a small text grammar::

    H                   one hyperbolic plane [[0,1],[1,0]]
    3H                  direct sum of three hyperbolic planes
    diag(1,-1,-1)       diagonal form
    matrix [[0,1],[1,0]]  explicit symmetric matrix

"""

from __future__ import annotations

import re
import string
import sys
from bisect import bisect_right
from collections import Counter
from functools import cached_property
from itertools import accumulate, compress
from operator import itemgetter, mul
from typing import Iterable, NoReturn, Sequence


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

    def entries(self) -> tuple[tuple[int, ...], ...]:
        return self._data

    @property
    def is_symmetric(self) -> bool:
        if self._rows != self._cols:
            return False
        return tuple(zip(*self._data)) == self._data

    def determinant(self) -> int:
        """Exact determinant of a symmetric matrix, by its form's one Bareiss pass."""
        if not self.is_symmetric:
            raise FormError("determinant needs a symmetric matrix")
        return IntersectionForm(self).determinant

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


Block = tuple[tuple[int, ...], ...]  # one block's square rows
_H: Block = ((0, 1), (1, 0))


def _components(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Index sets of the connected components of the off-diagonal graph of
    the square rows, each ascending, ordered by their smallest index."""
    columns = range(len(rows))
    seen: set[int] = set()
    components = []
    for start in columns:
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for i in component:  # component grows while it is walked
            for j in compress(columns, rows[i]):  # the row's nonzero columns
                if j not in seen:
                    seen.add(j)
                    component.append(j)
        components.append(sorted(component))
    return components


class IntersectionForm:
    """Symmetric integer form, stored as its contiguous orthogonal blocks.

    block_rows holds each block's square rows, in order; no block splits
    into smaller contiguous orthogonal ones, so equal forms have equal
    blocks.  hyperbolic(k) stores H k times, diagonal a 1x1 block per entry,
    and a matrix literal is split once, its components' index spans merged
    where they overlap.  Parity, signature, determinant and the residue are
    read from the distinct blocks, lazily and exactly.  A form holds only
    its blocks: matrix is a view, their dense sum, built on first read.
    """

    def __init__(self, matrix: IntegerMatrix):
        if matrix.rows != matrix.cols:
            raise FormError("an intersection form must be square")
        if not matrix.is_symmetric:
            raise FormError("an intersection form must be symmetric")
        rows, spans = matrix.entries(), []
        for component in _components(rows):  # spans merged where they overlap
            if spans and component[0] < spans[-1][1]:
                spans[-1] = (spans[-1][0], max(spans[-1][1], component[-1] + 1))
            else:
                spans.append((component[0], component[-1] + 1))
        self.block_rows = tuple(tuple(row[a:b] for row in rows[a:b]) for a, b in spans)

    @classmethod
    def _of_blocks(cls, blocks: tuple[Block, ...]) -> "IntersectionForm":
        """A form on blocks the caller built square and symmetric, none of them splittable."""
        form = cls.__new__(cls)
        form.block_rows = blocks
        return form

    @classmethod
    def hyperbolic(cls, k: int = 1) -> "IntersectionForm":
        """Direct sum of k copies of the hyperbolic plane."""
        if k < 1:
            raise FormError("hyperbolic sum needs k >= 1")
        return cls._of_blocks((_H,) * k)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntersectionForm":
        if not entries:
            raise FormError("diagonal form needs at least one entry")
        return cls._of_blocks(tuple(((_check_int(d),),) for d in entries))

    @cached_property
    def matrix(self) -> IntegerMatrix:
        """The dense matrix, the blocks placed along the diagonal."""
        n, rows = self.rank, []
        for block, (a, b) in zip(self.block_rows, self.blocks):
            rows += [(0,) * a + row + (0,) * (n - b) for row in block]
        return IntegerMatrix._trusted(tuple(rows))

    @cached_property
    def rank(self) -> int:
        return sum(map(len, self.block_rows))

    @cached_property
    def blocks(self) -> tuple[tuple[int, int], ...]:
        """(start, stop) of each of block_rows in the form's basis."""
        stops = tuple(accumulate(map(len, self.block_rows)))
        return tuple(zip((0,) + stops, stops))

    def evaluate(self, x: Sequence[int]) -> int:
        """Return Q(x, x)."""
        return self.pair(x, x)

    def pair(self, x: Sequence[int], y: Sequence[int]) -> int:
        """Return the bilinear pairing Q(x, y), a sum over the nonzero coordinates of x.

        Each such coordinate i meets y through its row of the block that
        holds i, found by bisecting the blocks' stops, so a sparse x on many
        blocks costs its nonzero coordinates, not a visit to every block.
        """
        n = self.rank
        if len(x) != n or len(y) != n:
            raise FormError(f"vectors must have length {n}")
        for v in (x,) if y is x else (x, y):
            if not set(map(type, v)) <= {int}:  # exact ints pass in one pass
                for c in v:
                    _check_int(c)
        blocks, total, b = self.blocks, 0, 0
        for i in compress(range(n), x):
            if i >= b:  # past the current block: bisect for the one holding i
                k = bisect_right(blocks, i, key=itemgetter(1))
                a, b = blocks[k]
                rows, ys = self.block_rows[k], y[a:b]
            total += x[i] * sum(map(mul, rows[i - a], ys))
        return total

    @cached_property
    def is_even(self) -> bool:
        """True when every diagonal entry is even (type II form)."""
        return not any(row[i] & 1 for block in set(self.block_rows) for i, row in enumerate(block))

    @cached_property
    def _inertia(self) -> tuple[int, int]:
        """(determinant, negative eigenvalue count), one pass per component of each distinct block.

        Grouping each component's indices is a simultaneous permutation of
        rows and columns, which keeps the determinant and the inertia.  So
        the determinant is the product of the components' determinants, each
        raised to its block's multiplicity, the negative count their sum,
        and a degenerate component makes the whole form degenerate, reported
        as (0, 0).  Components, not blocks, so that a permuted basis does
        not merge into one O(n^3) pass.
        """
        determinant, negative = 1, 0
        for block, count in Counter(self.block_rows).items():
            for component in _components(block):
                d, neg = _bareiss_inertia([[block[i][j] for j in component] for i in component])
                if d == 0:
                    return 0, 0
                determinant *= d**count
                negative += neg * count
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
        solutions side by side, each distinct block solved once.  On a
        unimodular form every block is unimodular and its system uniquely
        solvable.  Even forms give the zero vector, with no system solved.
        Raises FormError for a form that is not unimodular.
        """
        if not self.is_unimodular:
            raise FormError("characteristic residue needs a unimodular form")
        if self.is_even:
            return (0,) * self.rank
        solved = {}
        for block in set(self.block_rows):
            n = len(block)
            rows = [[v & 1 for v in row] + [row[i] & 1] for i, row in enumerate(block)]
            for col in range(n):
                pivot = next((r for r in range(col, n) if rows[r][col]), None)
                if pivot is None:
                    # cannot happen for unimodular blocks: det is odd, so the
                    # mod-2 matrix is invertible
                    raise FormError("mod-2 system is singular despite unimodularity")
                rows[col], rows[pivot] = rows[pivot], rows[col]
                for other in range(n):
                    if other != col and rows[other][col]:
                        rows[other] = [x ^ y for x, y in zip(rows[other], rows[col])]
            solved[block] = tuple(row[n] for row in rows)
        return tuple(c for block in self.block_rows for c in solved[block])

    @cached_property
    def hyperbolic_summands(self) -> int | None:
        """k when the form's blocks are k literal copies of H, else None.

        This is a syntactic check, not an isometry test: a form isometric to
        kH in a rotated or permuted basis is not recognized.
        """
        if self.block_rows and set(self.block_rows) == {_H}:
            return len(self.block_rows)
        return None

    def descriptor(self) -> str:
        """Canonical text form: "H", "kH", "diag(...)" or "matrix [[...]]"."""
        k = self.hyperbolic_summands
        if k == 1:
            return "H"
        if k is not None:
            return f"{k}H"
        if all(len(block) == 1 for block in self.block_rows):
            return "diag(" + ",".join(str(block[0][0]) for block in self.block_rows) + ")"
        inner = ",".join("[" + ",".join(map(str, row)) + "]" for row in self.matrix.entries())
        return f"matrix [{inner}]"

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntersectionForm):
            return NotImplemented
        return self.block_rows == other.block_rows

    def __hash__(self) -> int:
        return hash(self.block_rows)

    def __repr__(self) -> str:
        return f"IntersectionForm({self.descriptor()!r})"


# The grammars take ASCII whitespace only: str.strip(), str.split() and \s
# without re.ASCII would also take Unicode spaces such as U+3000 and U+00A0.
_SPACE = string.whitespace
_INT_RE = re.compile(r"[+-]?[0-9]+")
_HYPERBOLIC_RE = re.compile(r"^([+-]?[0-9]+)?\s*H$", re.ASCII)
_DIAG_RE = re.compile(r"^diag\s*\((.*)\)$", re.DOTALL | re.ASCII)
_MATRIX_RE = re.compile(r"^matrix\s*(\[.*\])$", re.DOTALL | re.ASCII)


# "0" and "," stay, the other bytes an integer list may hold (digits, signs
# and ASCII whitespace) become "1", and every other byte "x": one find then
# reaches the next piece that is not all zeros
_MARK = bytes(
    c if c in b"0," else ord("1") if c in b"123456789+-" + _SPACE.encode() else ord("x")
    for c in range(256)
)


def read_int(text: str, field: str, error: type[Exception]) -> int:
    """The integer text writes: ASCII digits with an optional sign, nothing around them.

    Otherwise raise error, naming field.  int() also refuses more than
    sys.get_int_max_str_digits() digits.  That limit is process-wide state,
    so a text that the rule takes and int() refuses is reported as too long
    rather than raised as int()'s own ValueError.
    """
    if not _INT_RE.fullmatch(text):
        raise error(f"{field} must be an integer, got {text!r}")
    try:
        return int(text)
    except ValueError:
        digits = len(text.lstrip("+-"))
        raise error(
            f"{field} is too long: {digits} digits, "
            f"at most {sys.get_int_max_str_digits()} are read"
        ) from None


def _refuse(text: str, field: str, error: type[Exception]) -> NoReturn:
    """read_int of each comma-separated piece, its ASCII whitespace stripped, until one raises."""
    for piece in text.split(","):
        read_int(piece.strip(_SPACE), field, error)
    raise AssertionError("a reader's fast path refused a text that read_int takes")


def read_ints(text: str, field: str, error: type[Exception]) -> tuple[int, ...]:
    """Comma-separated integers under read_int's rule, each with ASCII whitespace around it.

    For short dense vectors, the diag entries and w2: after the character
    check, int() reads every piece of one split.  A text with a byte that
    no integer list holds, or a piece int() refuses, is read by read_int
    piece by piece, which says what is wrong.
    """
    if text.isascii() and b"x" not in text.encode("ascii").translate(_MARK):
        try:
            return tuple(map(int, text.split(",")))
        except ValueError:
            pass  # some piece is not an integer or is too long
    _refuse(text, field, error)


def _nonzeros(values: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """The (index, value) pairs of the nonzero ints of values, in order."""
    return tuple(zip(compress(range(len(values)), values), filter(None, values)))


def _dense(length: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The vector of length length that holds the (index, value) pairs, zeros elsewhere."""
    values = [0] * length
    for i, v in pairs:
        values[i] = v
    return tuple(values)


def read_sparse_ints(
    text: str, field: str, error: type[Exception]
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(length, nonzero (index, value) pairs) of comma-separated integers, under read_ints' rule.

    For rows that can be wide and mostly zero, the rel rows and a matrix
    literal's rows.  The marked bytes (_MARK) of the pieces that are not
    all zeros are found by find and count, and int() reads just those
    pieces, so a row costs its nonzero entries, not its width.  An empty
    piece, a zero piece longer than int()'s digit limit, a byte that no
    integer list holds, or any piece int() refuses sends the whole text to
    read_int piece by piece, which says what is wrong.
    """
    marks = text.encode("ascii").translate(_MARK) if text.isascii() else b"x"
    limit = sys.get_int_max_str_digits()
    if not (
        not marks
        or b"x" in marks
        or marks.startswith(b",")
        or marks.endswith(b",")
        or b",," in marks  # an empty piece
        or limit and len(marks) > limit and b"0" * (limit + 1) in marks
    ):
        pairs = []
        index = piece = 0
        at = marks.find(b"1")
        try:
            while at >= 0:
                start = marks.rfind(b",", 0, at) + 1
                end = marks.find(b",", at)
                if end < 0:
                    end = len(marks)
                index += marks.count(b",", piece, start)
                piece = start
                value = int(text[start:end])
                if value:
                    pairs.append((index, value))
                at = marks.find(b"1", end)
            return marks.count(b",") + 1, tuple(pairs)
        except ValueError:
            pass  # some piece is not an integer or is too long
    _refuse(text, field, error)


# whitespace next to a bracket or a comma; a replacement with no group
# reference leaves re.sub no template to expand per match
_MATRIX_SPACE_RE = re.compile(r"\s+(?=[][,])|(?<=[][,])\s+", re.ASCII)


def _parse_matrix_literal(text: str) -> list[tuple[int, ...]]:
    # whitespace goes only next to brackets and commas, so "1 2" stays one
    # piece and is rejected as an integer
    squeezed = _MATRIX_SPACE_RE.sub("", text)
    if not (squeezed.startswith("[[") and squeezed.endswith("]]")):
        raise FormParseError(f"malformed matrix literal: {text!r}")
    body = squeezed[2:-2]
    if "[" in body.replace("],[", "") or "]" in body.replace("],[", ""):
        raise FormParseError(f"malformed matrix literal: {text!r}")
    rows = []
    for chunk in body.split("],["):
        if not chunk:
            raise FormParseError("matrix rows must be nonempty")
        rows.append(_dense(*read_sparse_ints(chunk, "matrix entry", FormParseError)))
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
        k = 1 if match.group(1) is None else read_int(match.group(1), "kH count", FormParseError)
        if k < 1:
            raise FormParseError(f"hyperbolic sum needs k >= 1, got {k}")
        return IntersectionForm.hyperbolic(k)

    match = _DIAG_RE.match(text)
    if match:
        inner = match.group(1).strip(_SPACE)
        if not inner:
            raise FormParseError("diag(...) needs at least one entry")
        return IntersectionForm.diagonal(read_ints(inner, "diag entry", FormParseError))

    match = _MATRIX_RE.match(text)
    if match:
        rows = _parse_matrix_literal(match.group(1))  # rows of ints, read by read_sparse_ints
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise FormError("matrix rows must all have the same length")
        if len(rows) != width:
            raise FormParseError("matrix literal must be square")
        return IntersectionForm(IntegerMatrix._trusted(tuple(rows)))

    raise FormParseError(f"unrecognized form descriptor: {spec!r}")
