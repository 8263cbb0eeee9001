"""Packed-point arrays over {-1,+1}^n, index sets, truth tables, and junta hypotheses.

Encoding convention used throughout the package: bit i-1 of an unsigned word is
set iff coordinate x_i = -1.  The all-(+1) point is the word 0, the basis point
e_i (all +1 except coordinate i) is the single set bit 1 << (i-1), coordinatewise
product x (*) y is XOR of the words, and the parity chi_S(x) = prod_{i in S} x_i
is the popcount parity of (S_mask AND x_bits).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

MAX_PACKED_N = 63
MAX_TABLE_N = 24


def parity_sign_u64(bits: np.ndarray, mask: int) -> np.ndarray:
    """chi_S over an array of packed points: +1/-1 int8 array."""
    par = np.bitwise_count(bits & np.uint64(mask)) & np.uint8(1)
    return (1 - 2 * par.astype(np.int8)).astype(np.int8)


def _check_integer(name: str, value: int, least: int, most: int | None = None) -> None:
    """Refuse a value that is not an integer (a bool is refused too) or lies
    outside [least, most], naming it."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name}={value!r} must be an integer")
    if most is None and value < least:
        raise ValueError(f"{name}={value} must be >= {least}")
    if most is not None and not least <= value <= most:
        raise ValueError(f"{name}={value} outside [{least}, {most}]")


def _check_real(name: str, value: float, interval: str) -> None:
    """Refuse a value that is not a real number (a bool is refused too) or
    lies outside ``interval``, written as in the message, e.g. ``"(0, 1]"``;
    NaN lies outside every interval."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name}={value!r} must be a real number")
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = low < value if interval[0] == "(" else low <= value
    below = value < high if interval[-1] == ")" else value <= high
    if not (above and below):
        raise ValueError(f"{name}={value} outside {interval}")


def _check_dim(n: int) -> None:
    _check_integer("dimension n", n, 1, MAX_PACKED_N)


@dataclass(frozen=True)
class IndexSet:
    """A subset S of [n], packed as a bit mask (bit i-1 set iff i in S)."""

    n: int
    mask: int = 0

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if self.mask >> self.n:
            raise ValueError(f"mask 0x{self.mask:x} has set bits above position {self.n}")

    @classmethod
    def of(cls, n: int, coords: Iterable[int]) -> "IndexSet":
        mask = 0
        for i in coords:
            _check_integer("coordinate", i, 1, n)
            mask |= 1 << (i - 1)
        return cls(n, mask)

    @classmethod
    def full(cls, n: int) -> "IndexSet":
        return cls(n, (1 << n) - 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 1 <= i <= self.n and bool((self.mask >> (i - 1)) & 1)

    def __iter__(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length()
            m ^= low

    def coords(self) -> tuple[int, ...]:
        return tuple(self)


def restriction_indices(J: IndexSet, bits: np.ndarray) -> np.ndarray:
    """Compress packed points onto J: bit j of the result is the j-th smallest
    coordinate of J, giving an index into a 2^|J| table."""
    bits = np.asarray(bits, dtype=np.uint64)
    idx = np.zeros(bits.shape, dtype=np.uint64)
    bit = np.empty_like(idx)
    for j, c in enumerate(J):
        # the j-th smallest coordinate c has c - 1 >= j: shift its bit to j
        np.right_shift(bits, np.uint64(c - 1 - j), out=bit)
        bit &= np.uint64(1 << j)
        idx |= bit
    return idx.view(np.int64)  # below 2^63, so the same number as an int64


# Points per step of signed_sums: a step's uint64 words, index and scratch
# word and float64 weights take ~2 MB however many points are binned.
_BIN_CHUNK = 1 << 16


def signed_sums(J: IndexSet, bits: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Exact int64 sum of the +-1 ``signs`` of the packed points ``bits`` in
    each of the 2^|J| subcubes J cuts, indexed as by restriction_indices.

    The points are binned max(_BIN_CHUNK, 2^|J|) at a time (a step at least
    as long as the table keeps each step's bincount cheap) and the steps'
    exact int64 sums added, so no temporary grows with the number of points.
    """
    size = 1 << len(J)
    step = max(_BIN_CHUNK, size)
    sums = np.zeros(size, dtype=np.int64)
    for lo in range(0, len(bits), step):
        # the index is a temporary here, freed before the next step's is built
        part = slice(lo, lo + step)
        counts = np.bincount(restriction_indices(J, bits[part]), signs[part], size)
        sums += counts.astype(np.int64)
    return sums


def _as_sign_array(values: Sequence[int] | np.ndarray) -> np.ndarray:
    problem = "truth table values must be a flat sequence of +1 and -1"
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ValueError(problem) from exc
    # checked before the int8 cast, which would truncate 1.5 or True to 1
    if arr.ndim != 1 or arr.dtype == bool or not np.all((arr == 1) | (arr == -1)):
        raise ValueError(problem)
    arr = arr.astype(np.int8)  # always a copy, so no caller's array is aliased or frozen
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class TruthTable:
    """Explicit f: {-1,+1}^n -> {-1,+1}; values indexed by the packed-bits encoding."""

    n: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_integer("truth table dimension n", self.n, 1, MAX_TABLE_N)
        object.__setattr__(self, "values", _as_sign_array(self.values))
        if len(self.values) != 1 << self.n:
            raise ValueError(f"expected {1 << self.n} values, got {len(self.values)}")

    def label_bits(self, bits: np.ndarray) -> np.ndarray:
        """The +-1 (int8) values at packed points of any unsigned word."""
        return self.values[bits.astype(np.int64)]


@dataclass(frozen=True)
class JuntaHypothesis:
    """A function depending only on the coordinates in J.

    ``table`` holds 2^|J| signs indexed by the restriction x|_J: reading the
    coordinates of J in increasing order, the j-th coordinate contributes bit j
    of the index (set iff that coordinate is -1, matching the packed-bits encoding).
    """

    J: IndexSet
    table: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", _as_sign_array(self.table))
        if len(self.table) != 1 << len(self.J):
            raise ValueError(f"expected {1 << len(self.J)} table entries, got {len(self.table)}")

    @property
    def n(self) -> int:
        return self.J.n

    @property
    def k(self) -> int:
        return len(self.J)

    def label_bits(self, bits: np.ndarray) -> np.ndarray:
        """The +-1 (int8) values at packed points of any unsigned word."""
        return self.table[restriction_indices(self.J, bits)]

    def to_truth_table(self) -> TruthTable:
        if self.n > MAX_TABLE_N:
            raise ValueError(f"n={self.n} too large to materialize")
        # Broadcast the table over the cube rather than index it at all 2^n
        # points, so the only 2^n array is the result: index temporaries of
        # 8 bytes a point run to tens of MB at n = 20, enough for glibc to
        # trim the freed heap and refault it on its next use.  Axis a of a
        # (2,)*n cube holds coordinate n - a, the packed index's bit
        # n - 1 - a; the table, shaped alike, holds J's coordinates on their
        # own axes.
        shape = [1] * self.n
        for c in self.J:
            shape[self.n - c] = 2
        cube = np.broadcast_to(self.table.reshape(shape), (2,) * self.n)
        return TruthTable(self.n, cube.reshape(-1))

    def to_dict(self) -> dict:
        return {"J": list(self.J), "table": [int(v) for v in self.table]}


BooleanFunction = Union[TruthTable, JuntaHypothesis]


def distance_exact(f: TruthTable, g: BooleanFunction) -> Fraction:
    """Exact disagreement fraction Pr[f(x) != g(x)] over the whole cube."""
    if g.n != f.n:
        raise ValueError(f"dimension mismatch: {g.n} != {f.n}")
    if isinstance(g, JuntaHypothesis):
        g = g.to_truth_table()
    disagree = int(np.count_nonzero(f.values != g.values))
    return Fraction(disagree, 1 << f.n)
