"""Exact linear algebra over the rationals and over prime fields.

Matrices are immutable, row-major and remember their field. Everything is
computed exactly by one sparse Gauss-Jordan elimination, `_reduce`, on
rows kept as {column: int} dicts of their nonzero entries: over the
rationals each row is cleared of denominators and divided by the gcd of its
entries after every update, so the integers stay small; over F_p each pivot
is scaled to 1. `Mat` turns its dense rows into such dicts; the Hom system
of `repcat` is assembled as sparse integer rows directly and eliminated by
the same `_reduce`, with its kernel read off by the same
`_kernel_vectors`. Kernels and solutions are read straight off the reduced
rows, one Fraction per output entry, and `repcat` reads the kernels and
cokernels of module maps off the reduced-echelon kernel basis.
`_first_relation` reduces a lazy stream of vectors one at a time, each
tagged with a unit column, and stops at the first one that depends on the
vectors before it (the powers of an endomorphism, for its minimal
polynomial). A row's pivot is its smallest column, so the pivot columns,
that kernel basis and the solution with free variables at zero do not
depend on the elimination order: results are reproducible across runs and
platforms.
"""

from __future__ import annotations

import operator
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from math import gcd, lcm

_PRIME_LIMIT = 2 ** 31


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % q == 0:
            return p == q
    # deterministic Miller-Rabin; these bases are exact below 3.2e18,
    # far beyond any characteristic this package accepts
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The scalar field: the rationals if characteristic 0, else F_p.

    Scalars are plain `Fraction` values over the rationals and plain ints in
    [0, p) over a prime field; `coerce` normalizes anything else. `zero` and
    `one` are attributes made once per Field and shared by every caller,
    which is safe because scalars are immutable.
    """

    characteristic: int = 0

    def __post_init__(self):
        p = self.characteristic
        if p >= _PRIME_LIMIT:
            raise ValueError(f"prime field characteristic {p} exceeds 2^31")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        # set here rather than cached on first use: a later write to the
        # instance dict slows every other attribute read of the Field
        object.__setattr__(self, "zero", Fraction(0) if p == 0 else 0)
        object.__setattr__(self, "one", Fraction(1) if p == 0 else 1)

    @property
    def is_rational(self) -> bool:
        return self.characteristic == 0

    def coerce(self, x):
        if self.characteristic == 0:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            raise TypeError(f"cannot coerce {x!r} into Q")
        if isinstance(x, Fraction):
            if x.denominator == 1:
                return x.numerator % self.characteristic
            return self.mul(x.numerator, self.inv(x.denominator))
        if isinstance(x, int):
            return x % self.characteristic
        raise TypeError(f"cannot coerce {x!r} into F_{self.characteristic}")

    def add(self, a, b):
        return a + b if self.characteristic == 0 else (a + b) % self.characteristic

    def mul(self, a, b):
        return a * b if self.characteristic == 0 else (a * b) % self.characteristic

    def neg(self, a):
        return -a if self.characteristic == 0 else (-a) % self.characteristic

    def inv(self, a):
        p = self.characteristic
        if p:
            # a multiple of p is zero in F_p
            a %= p
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero field element")
        return 1 / a if p == 0 else pow(a, p - 2, p)

    def is_zero(self, a) -> bool:
        return a == 0

    def parse(self, token: str):
        """Parse a scalar token: an integer or a quotient like '-3/2'."""
        token = token.strip()
        try:
            if "/" in token:
                num, den = token.split("/", 1)
                value = Fraction(int(num), int(den))
            else:
                value = Fraction(int(token))
            # over F_p a denominator divisible by p has no inverse
            return self.coerce(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad scalar {token!r}: {exc}") from None

    def format(self, x) -> str:
        return str(x)

    def __repr__(self):
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


QQ = Field(0)


def GF(p: int) -> Field:
    """The prime field F_p; characteristic 0 is `QQ`, not a GF."""
    if not _is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    return Field(p)


def _cleared(values):
    """(ints, d) with values[i] == ints[i] / d, for a sequence of Fractions.

    Only the nonzero entries are scaled, so a zero's denominator is never read.
    """
    nums = [x.numerator for x in values]
    den = lcm(*[values[i].denominator for i, x in enumerate(nums) if x])
    if den != 1:
        nums = [x * (den // values[i].denominator) if x else 0 for i, x in enumerate(nums)]
    return nums, den


def _as_index(x, what: str) -> int:
    """x as an int by `operator.index`; ValueError for a non-integer such as 1.7."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {x!r}") from None


def _sparse_rows(field: Field, rows):
    """Rows of field elements as {col: int} dicts of their nonzero entries.

    Over the rationals each row is scaled to coprime integers, which does
    not change the row space; zeros are dropped before any denominator is
    read.
    """
    out = []
    for r in rows:
        row = {j: x for j, x in enumerate(r) if x}
        if field.is_rational and row:
            den = lcm(*[x.denominator for x in row.values()])
            for j, x in row.items():
                row[j] = x.numerator * (den // x.denominator)
            _make_primitive(row)
        out.append(row)
    return out


def _make_primitive(row):
    g = gcd(*row.values())
    if g > 1:
        for j in row:
            row[j] //= g


def _eliminate(v, r, c, p):
    """Clear column c of row v with pivot row r, in place.

    Over F_p (p > 0) the pivot r[c] is 1; over the rationals v is scaled by
    an integer first and made primitive afterwards.
    """
    b = v[c]
    if p:
        for j, x in r.items():
            y = (v.get(j, 0) - b * x) % p
            if y:
                v[j] = y
            else:
                del v[j]
        return
    a = r[c]
    g = gcd(a, b)
    a //= g
    b //= g
    if a != 1:
        for j in v:
            v[j] *= a
    for j, x in r.items():
        y = v.get(j, 0) - b * x
        if y:
            v[j] = y
        else:
            del v[j]
    if v:
        _make_primitive(v)


def _reduce(rows, p, full, limit=None):
    """Sparse Gauss-Jordan elimination of integer rows over QQ (p = 0) or F_p.

    Rows are {col: int} dicts and are consumed. A row's pivot is its
    smallest column, so the pivot columns are the leading columns of the
    row space whatever the order of the rows. Returns {pivot column: row};
    with full=True every row is zero at every other pivot column (reduced
    echelon form up to row scaling), otherwise only below its own pivot.
    Returns None as soon as a row has no entry left before column `limit`.
    """
    piv = {}
    for v in rows:
        if full:
            for c in [c for c in v if c in piv]:
                _eliminate(v, piv[c], c, p)
        else:
            while v and (c := min(v)) in piv:
                _eliminate(v, piv[c], c, p)
        if not v:
            continue
        c = min(v)
        if limit is not None and c >= limit:
            return None
        if p and v[c] != 1:
            inv = pow(v[c], p - 2, p)
            for j in v:
                v[j] = v[j] * inv % p
        if full:
            for r in piv.values():
                if c in r:
                    _eliminate(r, v, c, p)
        piv[c] = v
    return piv


def _first_relation(field: Field, vectors):
    """The first linear relation among vectors, read from a lazy iterable.

    Returns [c_0, ..., c_k] with c_k = 1 and sum c_j vectors[j] = 0 for the
    first k at which vectors[k] lies in the span of the ones before it, or
    None if the iterable runs out first; no vector past k is requested.
    Vector j enters as the row (vectors[j] | unit at column n + j) and is
    reduced against the rows before it. A row pivots on its smallest
    column, so the first row whose data part vanishes pivots on a tag
    column, and its tag entries are the relation, which is unique because
    the vectors before it are independent.
    """
    p = field.characteristic
    piv = {}
    for k, vec in enumerate(vectors):
        n = len(vec)
        if p:
            row = {j: x for j, x in enumerate(vec) if x}
            row[n + k] = 1
        else:
            nums, den = _cleared(vec)
            row = {j: x for j, x in enumerate(nums) if x}
            row[n + k] = den
            _make_primitive(row)
        # the earlier rows have no entry at column n + k, so row never empties
        while (c := min(row)) in piv:
            _eliminate(row, piv[c], c, p)
        if c >= n:
            last = row[n + k]
            if p:
                inv = pow(last, p - 2, p)
                return [row.get(n + j, 0) * inv % p for j in range(k + 1)]
            return [Fraction(row.get(n + j, 0), last) for j in range(k + 1)]
        if p and row[c] != 1:
            inv = pow(row[c], p - 2, p)
            for j in row:
                row[j] = row[j] * inv % p
        piv[c] = row
    return None


def _kernel_vectors(field: Field, piv, n: int):
    """The reduced-echelon kernel basis of rows that `_reduce(..., full=True)`
    left as piv, over n columns: {free column: entry list}, ascending, each
    vector 1 at its free column and 0 at every other free column."""
    p = field.characteristic
    vecs = {fc: [field.zero] * n for fc in range(n) if fc not in piv}
    for fc, vec in vecs.items():
        vec[fc] = field.one
    for c, row in piv.items():
        a = row[c]
        for j, x in row.items():
            if j != c:
                vecs[j][c] = (-x) % p if p else Fraction(-x, a)
    return vecs


class _Frozen:
    """Base of the slotted value types: every assignment and deletion raises.

    `dataclass(frozen=True, slots=True)` raises `TypeError` for a name that
    is not a field, so the value types are plain slotted dataclasses that
    inherit these methods and set their fields with `object.__setattr__`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


@dataclass(init=False, repr=False, slots=True, unsafe_hash=True)
class Mat(_Frozen):
    """Immutable matrix with exact entries over a fixed field."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __init__(self, field: Field, rows: int, cols: int, entries):
        rows, cols = _as_index(rows, "matrix rows"), _as_index(cols, "matrix columns")
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        ent = tuple(field.coerce(x) for x in entries)
        if len(ent) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(ent)}"
            )
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", ent)

    @classmethod
    def _make(cls, field: Field, rows: int, cols: int, entries: tuple) -> "Mat":
        """Internal constructor for a tuple of entries already in canonical form."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "entries", entries)
        return m

    @classmethod
    def zeros(cls, field: Field, rows: int, cols: int) -> "Mat":
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        return cls._make(field, rows, cols, (field.zero,) * (rows * cols))

    @classmethod
    def identity(cls, field: Field, n: int) -> "Mat":
        if n < 0:
            raise ValueError("negative matrix dimensions")
        ent = [field.zero] * (n * n)
        for i in range(n):
            ent[i * n + i] = field.one
        return cls._make(field, n, n, tuple(ent))

    @classmethod
    def from_rows(cls, field: Field, row_lists) -> "Mat":
        row_lists = [list(r) for r in row_lists]
        rows = len(row_lists)
        cols = len(row_lists[0]) if rows else 0
        for r in row_lists:
            if len(r) != cols:
                raise ValueError("ragged rows")
        flat = [x for r in row_lists for x in r]
        return cls(field, rows, cols, flat)

    @classmethod
    def column(cls, field: Field, values) -> "Mat":
        values = list(values)
        return cls(field, len(values), 1, values)

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def row(self, i: int):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int):
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.field.format(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Mat({self.rows}x{self.cols} over {self.field!r}: {body})"

    def _check_same_field(self, other: "Mat"):
        if self.field != other.field:
            raise ValueError("matrices over different fields")

    def add(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in add")
        f = self.field
        return Mat._make(
            f,
            self.rows,
            self.cols,
            tuple(f.add(a, b) for a, b in zip(self.entries, other.entries)),
        )

    def scale(self, c) -> "Mat":
        f = self.field
        c = f.coerce(c)
        return Mat._make(f, self.rows, self.cols, tuple(f.mul(c, a) for a in self.entries))

    def mul(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ValueError(
                f"shape mismatch in mul: {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        f = self.field
        n, k = self.cols, other.cols
        if f.is_rational:
            (a, da), (b, db) = _cleared(self.entries), _cleared(other.entries)
        else:
            a, da, b, db = self.entries, 1, other.entries, 1
        b_rows = [[(j, x) for j, x in enumerate(b[t * k : (t + 1) * k]) if x] for t in range(n)]
        out = []
        for i in range(self.rows):
            acc = [0] * k
            for t, x in enumerate(a[i * n : (i + 1) * n]):
                if x:
                    for j, y in b_rows[t]:
                        acc[j] += x * y
            out.extend(acc)
        p = f.characteristic
        if p:
            ent = tuple(s % p for s in out)
        else:
            zero, den = f.zero, da * db
            ent = tuple(Fraction(s, den) if s else zero for s in out)
        return Mat._make(f, self.rows, k, ent)

    def transpose(self) -> "Mat":
        c = self.cols
        ent = tuple(x for j in range(c) for x in self.entries[j::c])
        return Mat._make(self.field, c, self.rows, ent)

    def hstack(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        out = []
        for i in range(self.rows):
            out.extend(self.row(i))
            out.extend(other.row(i))
        return Mat._make(self.field, self.rows, self.cols + other.cols, tuple(out))

    def vstack(self, other: "Mat") -> "Mat":
        self._check_same_field(other)
        if self.cols != other.cols:
            raise ValueError("column mismatch in vstack")
        return Mat._make(
            self.field, self.rows + other.rows, self.cols, self.entries + other.entries
        )

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.entries)

    # --- elimination-backed operations ---

    def _echelon(self, full=False):
        """{pivot column: integer row} of the rows; see `_reduce` for `full`."""
        rows = _sparse_rows(self.field, (self.row(i) for i in range(self.rows)))
        return _reduce(rows, self.field.characteristic, full)

    def rank(self) -> int:
        return len(self._echelon())

    def _kernel_matrix(self):
        """(B, free): the reduced-echelon kernel basis as the columns of an
        n x k matrix B, and its free rows, ascending; B is the identity there."""
        f, n = self.field, self.cols
        if self.is_zero():
            # every column is free; no elimination needed
            return Mat.identity(f, n), tuple(range(n))
        vecs = _kernel_vectors(f, self._echelon(full=True), n)
        ent = tuple(x for row in zip(*vecs.values()) for x in row)
        return Mat._make(f, n, len(vecs), ent), tuple(vecs)

    def kernel_basis(self):
        """Deterministic kernel basis as a list of column vectors (n x 1 Mats).

        The basis is the reduced-echelon one: each vector has 1 at its free
        column and 0 at the other free columns.
        """
        B, _ = self._kernel_matrix()
        return [Mat._make(B.field, B.rows, 1, B.col(j)) for j in range(B.cols)]

    def solve(self, b: "Mat"):
        """One exact solution of self @ x = b, or None if inconsistent.

        Free variables are set to zero, so the result is deterministic.
        """
        self._check_same_field(b)
        if b.rows != self.rows or b.cols != 1:
            raise ValueError("solve expects a column vector matching the row count")
        return self.solve_matrix(b)

    def solve_matrix(self, B: "Mat"):
        """Solve self @ X = B columnwise; None if any column is inconsistent."""
        self._check_same_field(B)
        if B.rows != self.rows:
            raise ValueError("row mismatch in solve")
        f = self.field
        p = f.characteristic
        n, k = self.cols, B.cols
        rows = _sparse_rows(f, (self.row(i) + B.row(i) for i in range(self.rows)))
        piv = _reduce(rows, p, True, limit=n)
        if piv is None:
            return None
        out = [f.zero] * (n * k)
        for c, row in piv.items():
            a = row[c]
            for j, x in row.items():
                if j >= n:
                    out[c * k + j - n] = x if p else Fraction(x, a)
        return Mat._make(f, n, k, tuple(out))

    def column_space_pivot_rows(self):
        """Row indices where the column space has its echelon pivots.

        The complementary rows index a basis of the cokernel: unit vectors
        there complete the column space to the full target.
        """
        return tuple(sorted(self.transpose()._echelon()))

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        inv = self.solve_matrix(Mat.identity(self.field, self.rows))
        if inv is None:
            raise ValueError("matrix is singular")
        return inv
