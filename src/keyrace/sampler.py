"""Grouped key-race sampling over row tables.

Every row ``(group_id, label, strength)`` gets its own uniform draw and
competition key; the winner of each group is the row with the extremal
key.  Because the per-row work touches nothing but the row itself and the
per-group step is an associative, commutative merge, the whole procedure
is schedule-independent: the winner maps of any partition of the rows,
merged with :func:`merge_winner_maps`, are byte-identical to the whole
table's.

Every entry point, the merges included, holds its rows as one
:class:`CodedTable`: exact integer group and label codes plus the
distinct ids, built with no ``(group_id, label)`` pair twice, since the
pair is what a row's uniform is hashed from, with ``str`` ids only, each
one UTF-8 encodes, and with no non-finite injected key.  The CLI codes
the rows while reading, as distinct decoded text that is not checked
again, and races its table with :func:`_race_columns`; the library entry points
and the merges code theirs with :meth:`CodedTable.from_ids`.  A call is
prepared once and raced once per replicate.  Preparing checks the
strengths and digests each distinct id once, in numpy.  The rows are
then sorted once, stably, by group.  Only
the uniforms, keys and the reduction depend on the replicate: each
replicate takes every group's maximum with one segmented reduction and
compares labels only in groups whose best keys tie exactly.  Its result
is columnar: per group that has a row, in group-code order, the winning
label code, key, order key and row count.  The CLI writes those columns
as they are; :func:`sample_codes`, :func:`sample_replicates` and
:func:`sample_arrays` are thin adapters that turn each replicate's
columns into a map from group id to :class:`GroupWinner`.  Every table
and every merge reduces through :func:`_winners`; :func:`_beats` settles
each upsert in ``DynamicTable`` and re-scans its groups, and is the
tests' oracle.

Work that splits into independent parts, the blocks of
:func:`replicate_winners` and the CSV pieces of ``sample --threads N``,
runs in up to :func:`_workers` processes, each other than the caller
forked through :class:`_Children`.  A child that fails, or cannot be
forked, hands its work back: the caller does it, so the result and every
error are one process's.

Randomness is *derived*, not streamed.  The uniform of a row is a pure
function of ``(seed, replicate, version, group_id, label)``, obtained by
absorbing those values into a 64-bit state with the SplitMix64 finalizer
(full-avalanche xorshift-multiply mix) and mapping the final state to the
open interval (0, 1).  A sequential generator would make the output
depend on row order; the hash keeps rows independent of each other and of
the partitioning.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import mmap
import operator
import os
import pickle
import warnings
from dataclasses import KW_ONLY, InitVar, dataclass, field
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .families import (
    FamilyDomainError,
    ModelSpec,
    Orientation,
    _check_strengths,
    _keys,
    _order_keys,
    generate_order_key,  # noqa: F401  (not called here; the traced benchmark run wraps it)
)

__all__ = [
    "SeedContext",
    "CodedTable",
    "Row",
    "KeyedRow",
    "GroupWinner",
    "derive_uniform",
    "replicate_uniforms",
    "assign_keys",
    "reduce_winners",
    "merge_winner_maps",
    "sample",
    "sample_arrays",
    "sample_replicates",
    "sample_codes",
    "code_ids",
    "first_duplicate",
    "replicate_winners",
]

_MASK = 0xFFFFFFFFFFFFFFFF
_MIX_MULT_1 = 0xBF58476D1CE4E5B9
_MIX_MULT_2 = 0x94D049BB133111EB
_GOLDEN = 0x9E3779B97F4A7C15

_U64_MULT_1 = np.uint64(_MIX_MULT_1)
_U64_MULT_2 = np.uint64(_MIX_MULT_2)
_U64_30 = np.uint64(30)
_U64_27 = np.uint64(27)
_U64_31 = np.uint64(31)
_U64_11 = np.uint64(11)
_UNIT = 2.0**-53
# Replicates per block of replicate_winners.  A block costs each label about
# 20 short numpy calls, so the larger the block, the fewer calls.  On a 2-vCPU
# Xeon, with worker processes, 2^14 timed within noise of 2^15 and 2^13 slower;
# 2^16 timed within noise of 2^15, but it raised a fresh process's peak RSS by
# ~7% over 2^14 (2^15: ~1%).  The label loop makes no array: every step writes
# to per-worker buffers, so a block causes no page faults.
_RACE_BLOCK = 1 << 15
# Labels x replicates per worker of replicate_winners, below which a forked
# worker costs more than it saves.  Racing 2^20 draws in two processes rather
# than one saved ~10% on a 2-vCPU Xeon (warm medians, 13-17 of 21 pairs won)
# and 786k lost, so a worker gets at least twice the crossover: with the
# host's second vCPU often busy, a fork must pay off by a margin.
_FORK_DRAWS = 1 << 20


def _mix64(x: int) -> int:
    """SplitMix64 finalizer on a plain Python integer."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX_MULT_1) & _MASK
    x ^= x >> 27
    x = (x * _MIX_MULT_2) & _MASK
    x ^= x >> 31
    return x


def _mix64_array(x: np.ndarray, shifted: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer, in place on a caller's own uint64 array (wraps mod 2^64).

    Each shift goes to ``shifted`` (a uint64 array of x's shape) when it
    is given, else to a temporary.
    """
    x ^= np.right_shift(x, _U64_30, out=shifted)
    x *= _U64_MULT_1
    x ^= np.right_shift(x, _U64_27, out=shifted)
    x *= _U64_MULT_2
    x ^= np.right_shift(x, _U64_31, out=shifted)
    return x


def _str_type_error(s) -> TypeError:
    return TypeError(f"group ids and labels must be str, got {type(s).__name__} {s!r}")


def _utf8_error(s: str) -> ValueError:
    return ValueError(f"group ids and labels must encode as UTF-8, got {s!r}")


def _check_text(names: Sequence) -> None:
    """Raise for the first name that is not a ``str`` (``TypeError``), else for the first
    that UTF-8 cannot encode, as a lone surrogate (``ValueError``); both name it."""
    try:
        text = "".join(names)
    except TypeError:
        raise _str_type_error(next(s for s in names if not isinstance(s, str))) from None
    if text.isascii():  # a flag the str keeps: no scan
        return
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:  # name the id that holds the first bad character
        ends = list(itertools.accumulate(map(len, names)))
        raise _utf8_error(names[bisect.bisect_right(ends, err.start)]) from None


def _string_digest(s: str) -> int:
    """64-bit digest of a string: length then 8-byte chunks, mixed stepwise.

    The scalar reference; :func:`_digests_at` is its vectorized twin.
    """
    if not isinstance(s, str):
        raise _str_type_error(s)
    try:
        data = s.encode("utf-8")
    except UnicodeEncodeError:
        raise _utf8_error(s) from None
    h = _mix64(_GOLDEN ^ len(data))
    for i in range(0, len(data), 8):
        h = _mix64(h ^ int.from_bytes(data[i : i + 8], "little"))
    return h


def _digests_at(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``_string_digest`` of the strings encoded at ``data[starts[i]:][:lengths[i]]``,
    as a uint64 array; ``data`` runs on for at least 7 bytes past each string.

    Word j of a string is loaded straight from ``data``, through a view of
    little-endian words that starts at every byte.  While every string has
    a whole word j, all are mixed at once; then word j is mixed only into
    the strings that reach it, a last word masked to the string's own bytes.
    """
    words = np.ndarray(len(data) - 7, dtype="<u8", buffer=data, strides=(1,))
    out = _mix64_array(np.uint64(_GOLDEN) ^ lengths.astype(np.uint64))
    if not lengths.size:
        return out
    j = int(lengths.min()) >> 3  # words every string has whole
    for k in range(j):
        _mix64_array(np.bitwise_xor(out, words[starts + 8 * k], out=out))
    live = np.flatnonzero(lengths > 8 * j)
    while live.size:
        left = lengths[live] - 8 * j
        # a last word of fewer than 8 bytes keeps its low ones: shift out the others
        short = (8 - np.minimum(left, 8)).astype(np.uint64) << np.uint64(3)
        out[live] = _mix64_array(out[live] ^ (words[starts[live] + 8 * j] << short >> short))
        live, j = live[left > 8], j + 1
    return out


def _string_digests(strings: Sequence[str]) -> np.ndarray:
    """``[_string_digest(s) for s in strings]`` as a uint64 array, in numpy.

    The strings are joined, with 8 NULs after the last, and encoded once,
    and :func:`_digests_at` digests them in that one buffer.  Their byte
    lengths are their lengths in characters unless the buffer is longer
    than the text, when some string is not ASCII; only then is each
    encoded on its own for its length.  Every string must be a ``str``
    that UTF-8 encodes, as :class:`CodedTable` checks.
    """
    text = "".join([*strings, "\0" * 8])
    data = text.encode("utf-8")
    if len(data) == len(text):
        lengths = np.fromiter(map(len, strings), dtype=np.int64, count=len(strings))
    else:
        lengths = np.fromiter(map(len, map(str.encode, strings)), dtype=np.int64,
                              count=len(strings))
    return _digests_at(data, np.cumsum(lengths) - lengths, lengths)


def _to_unit(h, out=None):
    # (h >> 11) keeps 53 bits; +0.5 centers inside the half-open cells, so
    # the result lies in [2^-54, 1 - 2^-54] and log(u), log(-log(u)) stay finite.
    if out is None:
        return ((h >> 11) + 0.5) * _UNIT
    # the same steps on a uint64 array into a float64 ``out``, shifting h in place;
    # casting into ``out`` before adding spares numpy's 64 KiB cast buffer
    h >>= _U64_11
    out[...] = h
    out += 0.5
    out *= _UNIT
    return out


def _absorb(seed, replicate, version, group_digest, label_digests, out=None):
    """Final hash states of one absorption chain, one per label digest.

    The chain absorbs seed, replicate, version, group digest and label
    digest, in that order.  Each part is an integer, a Python or numpy one
    whose bits are absorbed mod 2^64, or a uint64 array, and arrays
    broadcast; any other part, a float included, raises ``TypeError``.
    The label-independent prefix is absorbed once and shared by every
    entry of ``label_digests``.  With ``out``, three
    uint64 arrays of the states' shape, no array is allocated: the prefix
    is kept in ``out[0]``, each label's state is written to ``out[1]``, so
    a yielded state lasts until the next is asked for, and the mix shifts
    into ``out[2]``.
    """
    prefix, state, shifted = (None, None, None) if out is None else out

    def absorb(h, part, into):
        if not isinstance(part, np.ndarray):
            part = operator.index(part) & _MASK
        if isinstance(h, np.ndarray) or isinstance(part, np.ndarray):
            # the xor is a new array or ``into``, so the in-place mix never writes to part
            return _mix64_array(np.bitwise_xor(h, part, out=into), shifted)
        return _mix64(h ^ part)

    h = 0  # absorbing the seed into 0 gives _mix64(seed), the chain's first state
    for part in (seed, replicate, version, group_digest):
        h = absorb(h, part, prefix)
    for label_digest in label_digests:
        yield absorb(h, label_digest, state)


def _uniform(seed, replicate, version, group_digest, label_digest):
    """Uniform in (0, 1) at the end of one chain; the parts are as in :func:`_absorb`."""
    (h,) = _absorb(seed, replicate, version, group_digest, [label_digest])
    return _to_unit(h)


def code_ids(strings: Sequence[str], index: dict[str, int]) -> np.ndarray:
    """Exact integer codes of ``strings`` under a first-seen ``index``.

    Strings not yet in ``index`` are appended to it in first-seen order,
    so one index can code a column that arrives in pieces.  One pass, with
    no bytecode run per string: ``dict.setdefault`` enters a new string as
    ``len(index)`` plus its position in ``strings``.  When the strings are
    neither all known nor all new, those provisional codes have gaps, and
    numpy renumbers them densely, in first-seen order, in the codes and
    then the index.
    """
    n = len(index)
    codes = np.fromiter(map(index.setdefault, strings, itertools.count(n)), dtype=np.intp,
                        count=len(strings))
    fresh = len(index) - n
    if fresh and fresh < codes.size:
        # a new string's provisional code is n + its first position, so the codes'
        # sorted order is first-seen order
        new = codes >= n
        codes[new] = n + np.unique(codes[new], return_inverse=True)[1]
        index.update(zip(list(itertools.islice(index, n, None)), range(n, n + fresh)))
    return codes


def _factorize(strings: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Exact integer codes in first-seen order, and the distinct strings."""
    index: dict[str, int] = {}
    codes = code_ids(strings, index)
    return codes, list(index)


def _duplicate_row(group_id: str, label: str) -> ValueError:
    return ValueError(f"duplicate row (group_id={group_id!r}, label={label!r})")


def first_duplicate(group_codes: np.ndarray, label_codes: np.ndarray,
                    n_labels: int) -> int | None:
    """Index of the first row whose (group, label) codes an earlier row has, else None."""
    pairs = group_codes * n_labels + label_codes
    ordered = np.sort(pairs)
    if not np.any(ordered[1:] == ordered[:-1]):
        return None
    order = np.argsort(pairs, kind="stable")  # equal pairs keep row order
    repeats = order[1:][pairs[order[1:]] == pairs[order[:-1]]]
    return int(repeats.min())


@dataclass(frozen=True)
class SeedContext:
    """Root of the derived randomness.

    Equal (seed, replicate) pairs reproduce every uniform exactly;
    distinct replicates give statistically independent copies of the
    whole table, which is how Monte Carlo experiments draw repetitions
    without re-seeding.  Both are integers, Python or numpy; any other
    value, a float included, raises ``TypeError`` when the context is
    built, so a call that draws no uniform refuses it too.
    """

    seed: int = 0
    replicate: int = 0

    def __post_init__(self) -> None:
        operator.index(self.seed)
        operator.index(self.replicate)


@dataclass(frozen=True)
class CodedTable:
    """A table of rows held as exact codes, with no (group_id, label) pair twice.

    Row i is ``(group_names[group_codes[i]], label_names[label_codes[i]],
    strengths[i])``, with distinct names, as :func:`code_ids` makes them.
    ``keys``, when given, are injected keys that stand in for generated
    ones.  Building a table with a non-empty code column that is not of an
    integer dtype, a column that is not 1-D or of another length, or a
    code that indexes no name raises ``ValueError``, as does one that
    repeats a pair, naming the first repeat; then one with a name that is
    not a ``str`` raises ``TypeError``, one with a name that UTF-8 cannot
    encode (a lone surrogate) or that repeats a name ``ValueError`` naming
    it, and one with a non-finite injected key :class:`FamilyDomainError`
    naming its ``(group_id, label)``, so a table once built is never
    checked again.  A caller whose names are a dict's keys passes
    ``_distinct_names=True``, and one whose names are also text decoded from
    UTF-8 ``_text_names=True``, and those names are not checked again.
    ``_digests``, the group and label names' :func:`_string_digests` or
    None for each, is the CSV reader's alone: it digests names from the
    bytes it read them from, and :func:`_prepare` takes those as they are.
    """

    group_codes: np.ndarray
    group_names: list[str]
    label_codes: np.ndarray
    label_names: list[str]
    strengths: np.ndarray
    keys: np.ndarray | None = None
    _: KW_ONLY
    _distinct_names: InitVar[bool] = False
    _text_names: InitVar[bool] = False
    _digests: tuple[np.ndarray | None, np.ndarray | None] = field(
        default=(None, None), repr=False, compare=False)

    def __post_init__(self, _distinct_names: bool, _text_names: bool) -> None:
        columns = {"group_codes": np.intp, "label_codes": np.intp, "strengths": np.float64}
        if self.keys is not None:
            columns["keys"] = np.float64
        for name in ("group_codes", "label_codes"):
            codes = np.asarray(getattr(self, name))
            if codes.size and not np.issubdtype(codes.dtype, np.integer):
                raise ValueError(f"a table's codes must be integers, got {codes.dtype}")
        for name, dtype in columns.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        if any(getattr(self, name).ndim != 1 for name in columns):
            raise ValueError("a table's columns must be 1-D")
        if len({len(getattr(self, name)) for name in columns}) > 1:
            raise ValueError("a table's columns must all have one length")
        for codes, names in ((self.group_codes, self.group_names),
                             (self.label_codes, self.label_names)):
            if codes.size and not 0 <= codes.min() <= codes.max() < len(names):
                raise ValueError("a table's codes must index its names")
        dup = first_duplicate(self.group_codes, self.label_codes, len(self.label_names))
        if dup is not None:
            raise _duplicate_row(*self.row(dup))
        for names in (self.group_names, self.label_names):
            if not _text_names:
                _check_text(names)
            if not _distinct_names and len(set(names)) < len(names):
                repeat = next(s for s, n in collections.Counter(names).items() if n > 1)
                raise ValueError(f"a table's names must be distinct, {repeat!r} repeats")
        if self.keys is not None:
            bad = np.flatnonzero(~np.isfinite(self.keys))
            if bad.size:
                raise FamilyDomainError(
                    f"injected key must be finite, got {self.keys[bad[0]]} "
                    "(group_id={!r}, label={!r})".format(*self.row(bad[0]))
                )

    @classmethod
    def from_ids(cls, group_ids: Sequence[str], labels: Sequence[str], strengths,
                 keys=None) -> CodedTable:
        """The table of parallel row arrays, coded in first-seen order."""
        return cls(*_factorize(group_ids), *_factorize(labels), strengths, keys,
                   _distinct_names=True)

    def row(self, i: int) -> tuple[str, str]:
        """Row i's ``(group_id, label)``."""
        return self.group_names[self.group_codes[i]], self.label_names[self.label_codes[i]]

    @property
    def group_ids(self) -> list[str]:
        """Every row's group id."""
        return list(map(self.group_names.__getitem__, self.group_codes.tolist()))

    @property
    def labels(self) -> list[str]:
        """Every row's label."""
        return list(map(self.label_names.__getitem__, self.label_codes.tolist()))


@dataclass(frozen=True)
class Row:
    group_id: str
    label: str
    strength: float


@dataclass(frozen=True)
class KeyedRow:
    """A row plus its uniform draw and competition key.

    ``order_key`` is the monotone-equivalent value used for ranking; it
    differs from ``key`` only for the canonical family (log domain).
    """

    row: Row
    uniform: float
    key: float
    order_key: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.order_key is None:
            object.__setattr__(self, "order_key", self.key)


@dataclass(frozen=True)
class GroupWinner:
    group_id: str
    label: str
    key: float
    row_count: int
    order_key: float = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.order_key is None:
            object.__setattr__(self, "order_key", self.key)


def derive_uniform(ctx: SeedContext, group_id: str, label: str, version: int = 0) -> float:
    """Deterministic uniform in (0, 1) for one row.

    Absorption order: seed, replicate, version, group_id, label.  Strings
    enter through their own digests so distinct identifiers decorrelate
    fully; the final state maps to ((h >> 11) + 0.5) * 2^-53.
    """
    return _uniform(ctx.seed, ctx.replicate, version, _string_digest(group_id),
                    _string_digest(label))


def replicate_uniforms(
    seed: int, group_id: str, label: str, n_replicates: int, version: int = 0
) -> np.ndarray:
    """Uniforms of one row across replicates 0..n-1 (vectorized).

    ``seed`` is an integer, else ``TypeError`` is raised first.
    ``n_replicates`` is an integer, 0 or more: a negative one raises
    ``ValueError`` and any other value, a float included, ``TypeError``.
    """
    operator.index(seed)
    _check_n_replicates(n_replicates)
    reps = np.arange(n_replicates, dtype=np.uint64)
    return _uniform(seed, reps, version, _string_digest(group_id), _string_digest(label))


def _beats(
    order_key: float, label: str, inc_order_key: float, inc_label: str, orientation: Orientation
) -> bool:
    """Total-order comparator: extremal order_key first, smaller label on ties."""
    if order_key == inc_order_key:
        return label < inc_label
    if orientation is Orientation.MAX:
        return order_key > inc_order_key
    return order_key < inc_order_key


def _prepare(table: CodedTable, spec: ModelSpec) -> tuple[np.ndarray, np.ndarray] | None:
    """Domain check of a table, then the digests of its distinct group ids and labels,
    each column's taken from the table where it carries them.

    Injected keys stand in for the strengths, and the table checked them
    when it was built, so no digests are taken: None is returned.
    """
    if table.keys is not None:
        return None
    _check_strengths(spec, table.strengths, table.row)
    return tuple(_string_digests(names) if digests is None else digests
                 for names, digests in zip((table.group_names, table.label_names),
                                           table._digests))


def _segments(group_codes: np.ndarray, n_groups: int) -> tuple[np.ndarray, ...]:
    """Rows' stable order by group code, their sorted codes and where each code's run starts."""
    # a stable sort has one result; narrowed to the fewest bytes that hold
    # every group code, codes of 8 or 16 bits are sorted by radix
    order = np.argsort(group_codes.astype(np.min_scalar_type(n_groups - 1)), kind="stable")
    group_codes = group_codes[order]
    return order, group_codes, np.flatnonzero(np.diff(group_codes, prepend=[-1]))


def _winners(order_keys: np.ndarray, label_codes: np.ndarray, starts: np.ndarray,
             label_names: Sequence[str], orientation: Orientation) -> np.ndarray:
    """Position of the winner of each segment ``order_keys[starts[i]:starts[i + 1]]``.

    The winner holds the segment's best order key under ``orientation``; among
    exact ties (-0.0 equals 0.0) it has the smallest label in Python str order,
    as in :func:`_beats`.  Labels are compared only in segments that tie.
    """
    adj = order_keys if orientation is Orientation.MAX else -order_keys
    lengths = np.diff(starts, append=[len(adj)])
    top = np.flatnonzero(adj == np.repeat(np.maximum.reduceat(adj, starts), lengths))
    if top.size == starts.size:  # no ties: one top position per segment
        return top
    seg = np.repeat(np.arange(starts.size), lengths)[top]
    first = np.flatnonzero(np.diff(seg, prepend=[-1]))  # each segment's first top position
    counts = np.diff(first, append=[top.size])
    winners = top[first]
    tied = counts > 1
    cand = top[np.repeat(tied, counts)]
    names = list(map(label_names.__getitem__, label_codes[cand].tolist()))
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    sizes = counts[tied]
    best = np.minimum.reduceat(rank, np.cumsum(sizes) - sizes)
    winners[tied] = cand[rank == np.repeat(best, sizes)]
    return winners


def _check_n_replicates(n_replicates: int) -> None:
    if operator.index(n_replicates) < 0:
        raise ValueError(f"n_replicates must be >= 0, got {n_replicates}")


class _RaceColumns(NamedTuple):
    """One replicate's winners, one per group that has a row, in group-code order."""

    group_codes: np.ndarray
    label_codes: np.ndarray
    keys: np.ndarray
    order_keys: np.ndarray
    row_counts: np.ndarray


def _races(table: CodedTable, digests: tuple[np.ndarray, np.ndarray] | None, spec: ModelSpec,
           ctx: SeedContext, n_replicates: int) -> Iterator[_RaceColumns]:
    """Winner columns of replicates ``ctx.replicate ..`` of a prepared table.

    ``digests`` are :func:`_prepare`'s.  The rows are sorted once, stably,
    by group code.  Each replicate keys the rows in that order and takes
    each group's winner with :func:`_winners`, its rows' digests gathered
    and its per-row arrays freed within it, so no replicate peaks above the
    first.  A group named in ``table.group_names`` with no row has no
    segment, so no winner.
    """
    order, group_codes, starts = _segments(table.group_codes, len(table.group_names))
    label_codes, strengths = table.label_codes[order], table.strengths[order]
    injected_keys = None if table.keys is None else table.keys[order]
    segment_groups = group_codes[starts]
    row_counts = np.bincount(group_codes, minlength=len(table.group_names))[segment_groups]
    for replicate in range(ctx.replicate, ctx.replicate + n_replicates):
        if injected_keys is None:
            uniforms = _uniform(ctx.seed, replicate, 0, digests[0][group_codes],
                                digests[1][label_codes])
            order_keys = _order_keys(spec, strengths, uniforms)
        else:
            order_keys = injected_keys
        win = _winners(order_keys, label_codes, starts, table.label_names, spec.orientation)
        win_order_keys = order_keys[win]
        keys = (
            win_order_keys
            if injected_keys is not None
            else _keys(spec, strengths[win], uniforms[win], win_order_keys)[0]
        )
        uniforms = order_keys = None
        yield _RaceColumns(segment_groups, label_codes[win], keys, win_order_keys, row_counts)


def _race_columns(table: CodedTable, spec: ModelSpec, ctx: SeedContext,
                  n_replicates: int) -> Iterator[_RaceColumns]:
    """:func:`_races` of a table, checked and digested when this is called."""
    _check_n_replicates(n_replicates)
    return _races(table, _prepare(table, spec), spec, ctx, n_replicates)


def _winner_map(table: CodedTable, columns: _RaceColumns) -> dict[str, GroupWinner]:
    """One replicate's winner columns as a map from group id to :class:`GroupWinner`."""
    return {
        gid: GroupWinner(gid, label, key, count, order_key)
        for gid, label, key, count, order_key in zip(
            map(table.group_names.__getitem__, columns.group_codes.tolist()),
            map(table.label_names.__getitem__, columns.label_codes.tolist()),
            columns.keys.tolist(),
            columns.row_counts.tolist(),
            columns.order_keys.tolist(),
        )
    }


def _fold(candidates: list[tuple], orientation: Orientation) -> dict[str, GroupWinner]:
    """Per-group winners of ``(group_id, label, key, row_count, order_key)`` candidates,
    reduced by :func:`_winners` as a table's rows are, counts added.

    The candidates are held as one :class:`CodedTable`, with zero strengths as a merge
    races none, so they are refused as a table's rows are: a repeated ``(group_id,
    label)`` raises ``ValueError``, then an id that is not a ``str`` ``TypeError``.  Then
    the first NaN order key raises :class:`FamilyDomainError` (±inf are ordinary
    extremes).  ``orientation`` is an :class:`Orientation` or its value, ``"max"`` or
    ``"min"``; any other raises ``ValueError``.
    """
    orientation = Orientation(orientation)
    group_ids, labels, keys, row_counts, order_keys = zip(*candidates) if candidates else [()] * 5
    table = CodedTable.from_ids(group_ids, labels, np.zeros(len(labels)))
    adj = np.asarray(order_keys, dtype=np.float64)
    nan = np.flatnonzero(np.isnan(adj))
    if nan.size:
        raise FamilyDomainError("order key must not be NaN (group_id={!r}, label={!r})"
                                .format(*table.row(nan[0])))
    order, _, starts = _segments(table.group_codes, len(table.group_names))
    win = order[_winners(adj[order], table.label_codes[order], starts, table.label_names,
                         orientation)]
    counts = np.add.reduceat(np.asarray(row_counts, dtype=np.int64)[order], starts)
    return {gid: GroupWinner(gid, labels[i], keys[i], count, order_keys[i])
            for gid, i, count in zip(table.group_names, win.tolist(), counts.tolist())}


def assign_keys(
    rows: Sequence[Row], spec: ModelSpec, ctx: SeedContext
) -> list[KeyedRow]:
    """Attach a derived uniform and competition key to every row.

    Order-preserving; each output depends only on its own row and ``ctx``,
    so any partition of the input can be keyed independently.  A repeated
    (group_id, label) raises ``ValueError``; otherwise family domain errors
    are raised with the offending (group_id, label).
    """
    if not rows:
        return []
    strengths = np.fromiter((r.strength for r in rows), dtype=np.float64, count=len(rows))
    table = CodedTable.from_ids([r.group_id for r in rows], [r.label for r in rows], strengths)
    group_digests, label_digests = _prepare(table, spec)
    uniforms = _uniform(ctx.seed, ctx.replicate, 0, group_digests[table.group_codes],
                        label_digests[table.label_codes])
    keys, order_keys = _keys(spec, table.strengths, uniforms)
    return [
        KeyedRow(row, u, key, order_key)
        for row, u, key, order_key in zip(
            rows, uniforms.tolist(), keys.tolist(), order_keys.tolist()
        )
    ]


def reduce_winners(
    keyed: Iterable[KeyedRow], orientation: Orientation
) -> dict[str, GroupWinner]:
    """Reduce keyed rows to one winner per group.

    The best order_key wins, the smallest label on exact ties, and counts
    are added, so the result is independent of input order and of any
    partitioning into sub-reductions.  The rows are refused as
    :func:`sample` refuses them: a repeated ``(group_id, label)`` raises
    ``ValueError`` naming it, then an id that is not a ``str``
    ``TypeError``; then a NaN order key raises :class:`FamilyDomainError`
    naming its ``(group_id, label)``.  ``orientation`` may be given by its
    value, ``"max"`` or ``"min"``.
    """
    return _fold([(kr.row.group_id, kr.row.label, kr.key, 1, kr.order_key) for kr in keyed],
                 orientation)


def merge_winner_maps(
    maps: Iterable[Mapping[str, GroupWinner]], orientation: Orientation
) -> dict[str, GroupWinner]:
    """Merge partial winner maps from disjoint row partitions.

    Each winner is one candidate row, refused as :func:`reduce_winners`
    refuses a row: two maps whose winners of one group share a label hold
    one row twice, so they raise ``ValueError`` naming it.  A map's key
    that is not its winner's ``group_id`` raises ``ValueError`` naming it.
    """
    candidates = []
    for partial in maps:
        for key, w in partial.items():
            if key != w.group_id:
                raise ValueError(f"winner map key {key!r} is not its winner's "
                                 f"group_id {w.group_id!r}")
            candidates.append((w.group_id, w.label, w.key, w.row_count, w.order_key))
    return _fold(candidates, orientation)


def sample(
    rows: Sequence[Row], spec: ModelSpec, ctx: SeedContext
) -> dict[str, GroupWinner]:
    """Key every row and reduce to per-group winners.

    Within a group, label ``l`` wins with probability ``a_l / sum(a)``
    where ``a`` are the weights recovered from the strengths.
    """
    columns = ([r.group_id for r in rows], [r.label for r in rows], [r.strength for r in rows])
    return sample_arrays(*columns, spec, ctx)


def sample_arrays(
    group_ids: Sequence[str],
    labels: Sequence[str],
    strengths: np.ndarray,
    spec: ModelSpec,
    ctx: SeedContext,
    injected_keys: np.ndarray | None = None,
) -> dict[str, GroupWinner]:
    """Columnar sampling: one winner per group of parallel row arrays.

    The one-replicate case of :func:`sample_replicates`, which documents
    the arguments.
    """
    return next(
        sample_replicates(group_ids, labels, strengths, spec, ctx, 1, injected_keys)
    )


def sample_replicates(
    group_ids: Sequence[str],
    labels: Sequence[str],
    strengths: np.ndarray,
    spec: ModelSpec,
    ctx: SeedContext,
    n_replicates: int,
    injected_keys: np.ndarray | None = None,
) -> Iterator[dict[str, GroupWinner]]:
    """Winner maps of replicates ``ctx.replicate .. ctx.replicate + n_replicates - 1``.

    The table is checked and prepared when this is called: a repeated
    ``(group_id, label)`` raises ``ValueError``, then a non-finite
    injected key raises :class:`FamilyDomainError`, both when the
    :class:`CodedTable` is built; then a negative ``n_replicates`` raises
    ``ValueError`` (0 yields nothing), then a bad strength raises
    :class:`FamilyDomainError` naming its ``(group_id, label)``, and every
    distinct id is digested once for all replicates.  The returned
    iterator then keys and reduces one replicate per step.

    A row's key depends on nothing but the row and the replicate, so the
    maps of the parts of any partition of the rows, merged with
    :func:`merge_winner_maps`, equal the whole table's map.  When
    ``injected_keys`` is given the keys are taken verbatim instead of
    generated (used to replay externally keyed tables); every one must be
    finite.
    """
    table = CodedTable.from_ids(group_ids, labels, strengths, injected_keys)
    return sample_codes(table, spec, ctx, n_replicates)


def sample_codes(table: CodedTable, spec: ModelSpec, ctx: SeedContext,
                 n_replicates: int = 1) -> Iterator[dict[str, GroupWinner]]:
    """:func:`sample_replicates` of a table already coded, as ``cli.read_table`` returns one."""
    return (_winner_map(table, columns)
            for columns in _race_columns(table, spec, ctx, n_replicates))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the platform has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _workers(*bounds: int) -> int:
    """Worker processes for work that splits ``min(bounds)`` ways: at most one per usable
    CPU, as a process beyond them would only wait for one, and 1 without ``os.fork``."""
    return min(_usable_cpus(), *bounds) if hasattr(os, "fork") else 1


class _Children:
    """Forked children that each run one call and send its result back down a pipe.

    :meth:`join` returns the results in fork order.  A child whose pipe or
    fork fails, whose call raises, or that is killed gives None, and the
    caller then does that child's work itself.  Leaving the context kills
    and reaps every child not yet joined, so no child outlives it.
    """

    def __init__(self) -> None:
        self.children: list[tuple[int, BinaryIO] | None] = []  # (pid, pipe), None if unforked

    def __enter__(self) -> _Children:
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def fork(self, call) -> None:
        """Start a child that runs ``call()``, pickles its result down the pipe and exits 0,
        or exits 1 if anything raises."""
        fds: tuple[int, ...] = ()
        try:
            fds = os.pipe()
            pid = os.fork()
        except OSError:  # out of descriptors, processes or memory: the caller does this work
            for fd in fds:
                os.close(fd)
            self.children.append(None)
            return
        read_fd, write_fd = fds
        if pid == 0:  # the child never returns: whatever happens, it exits here
            try:
                os.close(read_fd)
                result = call()
                with open(write_fd, "wb") as pipe:
                    pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
                os._exit(0)
            finally:
                os._exit(1)
        os.close(write_fd)
        self.children.append((pid, open(read_fd, "rb")))

    def join(self):
        """The earliest child's result, or None if it failed.  Its pipe is read to the end
        before it is reaped, so a result larger than the pipe holds cannot stall it."""
        if self.children[0] is None:  # never forked
            return self.children.pop(0)
        pid, pipe = self.children[0]
        with pipe:
            payload = pipe.read()
        status = os.waitpid(pid, 0)[1]
        del self.children[0]  # reaped, so stop() leaves it alone
        return pickle.loads(payload) if status == 0 else None

    def stop(self) -> None:
        """Kill and reap every child not yet joined."""
        if any(self.children):
            import signal  # here: at the top it would add ~1 ms to importing keyrace
        while self.children:
            if (child := self.children.pop()) is not None:
                pid, pipe = child
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def replicate_winners(
    spec: ModelSpec,
    labels: Sequence[str],
    strengths: Sequence[float],
    seed: int,
    n_replicates: int,
    group_id: str = "g",
) -> np.ndarray:
    """Winning label index per replicate for a single group (vectorized).

    Equivalent to running :func:`sample` once per ``SeedContext(seed, r)``
    and recording the winner; replicates are independent because every
    uniform is derived per (replicate, group, label).  The rows are checked
    as every table is: a repeated label or a ``strengths`` that is not
    1-D or of another length raises ``ValueError``, a label that is not a
    ``str`` raises ``TypeError`` and a bad strength
    :class:`FamilyDomainError`.  Before them, a ``seed`` that is not an
    integer raises ``TypeError``, then a negative ``n_replicates``
    ``ValueError``, even when no replicate is drawn.

    Replicates are raced in blocks of 2^15, each label's keys folded into
    the block's running best and its leads into a running maximum of the
    leader's position in label order.  Every step of a label, hash,
    uniform, key and comparison, writes to buffers each worker makes once,
    so the label loop makes no array and a block causes no page faults.
    The blocks are dealt round-robin to one worker per CPU in the
    process's affinity mask (restrict them with ``taskset``), at most one
    per block and one per 2^20 labels x replicates, below which a fork
    costs more than it saves.  The calling process is one worker and,
    where the platform has ``os.fork``, each other worker is a
    :class:`_Children` child that writes its blocks' winners to the shared
    mapping that is returned.  While the workers run, warnings are errors,
    so a worker fails at its first exception or warning.  A block computes
    its own replicate numbers, so if any worker fails, or a child cannot be
    forked, the caller races every block again and raises or warns what a
    single worker raises or warns.  Working memory beside the result is
    O(workers x block) whatever labels times replicates is, and the
    winners are identical at any worker count.
    """
    operator.index(seed)
    _check_n_replicates(n_replicates)
    n = len(labels)
    if n == 0:
        raise ValueError("need at least one label")
    table = CodedTable.from_ids([group_id] * n, labels, strengths)
    (group_digest,), label_digests = _prepare(table, spec)
    # ties break toward the smallest label: labels race in sorted order and
    # only a strictly better key takes the lead.  A replicate's leader is kept
    # as its position in that order, in the fewest bytes that hold one; a new
    # leader's position is above every earlier one's, so the running maximum
    # of lead x position is the last leader, kept with no branch
    order = np.array(sorted(range(n), key=lambda i: labels[i]), dtype=np.intp)
    label_digests, s = label_digests[order], table.strengths[order]
    position = np.min_scalar_type(n - 1)
    better, extreme, worst = ((np.greater, np.maximum, -np.inf)
                              if spec.orientation is Orientation.MAX
                              else (np.less, np.minimum, np.inf))
    blocks = range(0, n_replicates, _RACE_BLOCK)
    n_workers = _workers(len(blocks), n * n_replicates // _FORK_DRAWS)
    if n_workers > 1:  # an anonymous mapping the children share
        winners = np.frombuffer(mmap.mmap(-1, n_replicates * np.dtype(np.intp).itemsize),
                                dtype=np.intp)
    else:
        winners = np.empty(n_replicates, dtype=np.intp)
    block = min(_RACE_BLOCK, n_replicates)

    def race(starts: Sequence[int]) -> bool:
        """Race the blocks that begin at ``starts`` in one worker's buffers; True, as a
        child's result of None marks it failed."""
        # states, prefixes, shifts, keys, bests, leads, jumps, leaders
        buffers = (*np.empty((3, block), np.uint64), *np.empty((2, block)),
                   np.empty(block, bool), *np.empty((2, block), position))
        for start in starts:
            size = min(block, n_replicates - start)
            state, prefix, shifted, u, best, lead, jump, leader = (a[:size] for a in buffers)
            state.fill(1)  # the replicate numbers start, start + 1, ..., made in place
            state[0] = start
            np.add.accumulate(state, out=state)
            chain = _absorb(seed, state, 0, group_digest, label_digests,
                            out=(prefix, state, shifted))
            best.fill(worst)
            leader.fill(0)
            for j, h in enumerate(chain):
                keys = _order_keys(spec, s[j], _to_unit(h, out=u), u)  # into u, as h is
                np.copyto(jump, better(keys, best, out=lead))
                np.multiply(jump, j, out=jump)
                np.maximum(leader, jump, out=leader)
                extreme(best, keys, out=best)
            win = winners[start : start + size]
            np.copyto(win, leader)
            # positions to label indices, in place: take reads each index before it
            # writes its slot in any mode but "raise", which copies; none is out of range
            np.take(order, win, out=win, mode="wrap")
        return True

    if n_workers > 1:
        # the caller races blocks 0, n, 2n, ... and each other worker is a child; a worker
        # fails at its first exception or warning, both errors while the workers run
        with warnings.catch_warnings(), _Children() as children:
            warnings.simplefilter("error")
            for k in range(1, n_workers):
                children.fork(functools.partial(race, blocks[k::n_workers]))
            try:
                race(blocks[::n_workers])
            except Exception:  # raised again, as one worker raises it, by the race below
                pass
            else:
                if all(children.join() for _ in range(1, n_workers)):
                    return winners
    # one worker, or one failed: the caller races every block, and raises or warns as
    # one worker does
    race(blocks)
    return winners
