"""Independent brute-force oracles for the dual polynomial.

Everything here is ground truth computed without the closed form: direct
subset-lattice inversion, the matching-covered sign sum, the elementary
completion sums, and the full coefficient table via a fast Mobius transform
over all 2^(n^2) edge sets.  The formula side of the package is validated
against these exhaustively at small n.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable, Iterator

import numpy as np

from ._errors import EmptyGraphError, PreconditionError, SizeLimitError
from .bigraph import BipartiteGraph, _check_side, _components, complement, has_perfect_matching
from .ordered import permitted_edges, representing_sequence
from .polyspace import DualPolynomial

MOBIUS_EDGE_MAX = 25
SUPERGRAPH_N_MAX = 4
PERMITTED_N_MAX = 5
TABLE_N_MAX = 4
TABLE_N_MAX_HUGE = 5

# The per-graph oracles classify the subsets or supersets of one graph in
# numpy blocks of 2^_WALK_BITS masks, so their memory does not grow with the walk.
_WALK_BITS = 12


def bpm_star_value(g: BipartiteGraph) -> int:
    """1 iff the complement of g has no perfect matching."""
    return 0 if has_perfect_matching(complement(g)) else 1


def _permutation_masks(n: int) -> list[int]:
    """The edge masks of the n! perfect matchings of K_{n,n}."""
    return [sum(1 << (i * n + p[i]) for i in range(n)) for p in permutations(range(n))]


def _doubling(bits: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(masks, signs): every OR of a subset of the single-bit masks in bits,
    with sign (-1)^(size of the subset).  Each bit appends (masks | bit,
    -signs) to what is there, so the signs need no popcount."""
    masks = np.zeros(1, dtype=np.int64)
    signs = np.ones(1, dtype=np.int64)
    for bit in bits:
        masks = np.concatenate((masks, masks | bit))
        signs = np.concatenate((signs, -signs))
    return masks, signs


def _signed_walk(bits: list[int]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The subset ORs and signs of _doubling(bits), in blocks of at most
    2^_WALK_BITS: each block is the subsets of the low bits joined with one
    subset of the high ones.  For ascending bits 1, 2, 4, ... the masks run
    through 0, 1, 2, ... in order."""
    low_masks, low_signs = _doubling(bits[:_WALK_BITS])
    high_masks, high_signs = _doubling(bits[_WALK_BITS:])
    for high, sign in zip(high_masks.tolist(), high_signs.tolist()):
        yield low_masks | high, (low_signs if sign > 0 else -low_signs)


def _rectangles(g: BipartiteGraph) -> list[int]:
    """Every A x B inside g with |A| + |B| = n + 1, as a compact mask whose
    bit t is the t-th edge of g in row-major order.

    By Frobenius-Konig, BPM*(H) = 1 iff H contains one: the complement of H
    then has an all-zero |A| x |B| submatrix and no perfect matching.  Row
    sets are grown in increasing order while their rows still share a column
    and while the rows that could still join, plus those columns, can reach
    n + 1.
    """
    n, rows = g.n, g.rows
    first = [0] * n  # compact bit of row i's lowest edge
    for i in range(1, n):
        first[i] = first[i - 1] + rows[i - 1].bit_count()

    def bit(i: int, j: int) -> int:
        return 1 << (first[i] + (rows[i] & ((1 << j) - 1)).bit_count())

    out = []
    stack = [((), (1 << n) - 1, 0)]  # (row set A, columns its rows share, next row)
    while stack:
        left, shared, start = stack.pop()
        for i in range(start, n):
            common = shared & rows[i]
            a = left + (i,)
            joinable = sum(1 for row in rows[i + 1:] if row & common)
            if len(a) + joinable + common.bit_count() <= n:
                continue
            cols = [j for j in range(n) if common >> j & 1]
            for b in combinations(cols, n + 1 - len(a)):
                out.append(sum(bit(r, j) for r in a for j in b))
            stack.append((a, common, i + 1))
    return out


def _holds_rectangle(subs: np.ndarray, rects: list[int]) -> np.ndarray:
    """Per compact mask in subs (a block of _signed_walk): does it contain one of rects?"""
    top = int(subs[-1])  # the last mask of a block holds every bit of the block
    star = np.zeros(len(subs), dtype=bool)
    for r in rects:
        if not r & ~top:
            star |= (subs & r) == r
    return star


def mobius_coefficient(g: BipartiteGraph) -> int:
    """Coefficient of g's monomial by direct inversion over subgraphs:
    sum over H subseteq G of (-1)^(|E(G)| - |E(H)|) * BPM*(H), with BPM*(H)
    read from the rectangles of g that H contains (Frobenius-Konig)."""
    edges = g.edge_count
    if edges > MOBIUS_EDGE_MAX:
        raise SizeLimitError("|E|", edges, MOBIUS_EDGE_MAX)
    rects = _rectangles(g)
    if not rects:  # BPM* is monotone: 0 on g, so 0 on every subgraph
        return 0
    acc = 0
    for subs, signs in _signed_walk([1 << t for t in range(edges)]):
        acc += int(signs[_holds_rectangle(subs, rects)].sum())
    return -acc if edges & 1 else acc


def _covered_components(n: int, perms: list[int], h: np.ndarray) -> np.ndarray:
    """Per edge mask in h: its number of connected components when the graph
    is matching-covered, else 0.

    A graph is matching-covered iff it holds a perfect matching and every
    edge lies in one, that is iff the OR of the permutation masks it holds
    (from perms) is the whole nonempty graph.  Then no vertex is isolated,
    so its components are the classes of rows that share a column, closed
    by Warshall's algorithm over the n row masks.
    """
    union = np.zeros_like(h)
    for p in perms:
        union |= np.where((h & p) == p, p, 0)
    covered = (union == h) & (h != 0)
    rows = (h[covered] >> np.arange(0, n * n, n)[:, None]) & ((1 << n) - 1)
    row_bits = 1 << np.arange(n)
    reach = np.where((rows[:, None, :] & rows[None, :, :]) != 0,
                     row_bits[None, :, None], 0).sum(axis=1)
    for k in range(n):
        reach |= np.where(reach & (1 << k), reach[k], 0)
    comps = np.zeros(len(h), dtype=np.int64)
    # One class per row that reaches no row below it.
    comps[covered] = ((reach & (row_bits - 1)[:, None]) == 0).sum(axis=0)
    return comps


def _supergraph_components(
    n: int, m: int, free: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(signs, comps) per block over H = m | sub for every sub subseteq free:
    sign (-1)^|sub| and _covered_components of H."""
    top = m | free
    perms = [p for p in _permutation_masks(n) if not p & ~top]
    for subs, signs in _signed_walk([1 << b for b in range(n * n) if free >> b & 1]):
        yield signs, _covered_components(n, perms, subs | m)


def _chi_sum_raw(g: BipartiteGraph) -> int:
    """The matching-covered sign sum with no domain guard (see Open Question).

    (-1)^(|E(G)|+1) * sum over matching-covered H >= G of (-1)^chi(H), where
    chi(H) = |E(H)| - 2n + #components.  With H = G + sub this is minus the
    sum of (-1)^(|sub| + #components).
    """
    n = g.n
    m = g.mask
    acc = 0
    for signs, comps in _supergraph_components(n, m, ((1 << (n * n)) - 1) ^ m):
        covered = comps > 0
        acc += int(signs[covered] @ (1 - 2 * (comps[covered] & 1)))
    return -acc


def mc_chi_sum_coefficient(g: BipartiteGraph) -> int:
    """Coefficient via the sign sum over matching-covered supergraphs.

    The empty graph is excluded: the raw sum evaluates to -1 there while
    the true constant term is 0.
    """
    if g.n > SUPERGRAPH_N_MAX:
        raise SizeLimitError("n", g.n, SUPERGRAPH_N_MAX)
    if g.edge_count == 0:
        raise EmptyGraphError("the sign-sum oracle excludes the empty graph")
    return _chi_sum_raw(g)


def elementary_sum_coefficient(g: BipartiteGraph) -> int:
    """Signed count of elementary supergraphs: sum over elementary H >= G
    of (-1)^(|E(H)| - |E(G)|).

    Requires all left vertices, or all right vertices, to lie in one
    connected component.  The empty graph is excluded: at n = 1 it meets
    that requirement, and the sum evaluates to -1 against a true constant
    term of 0.
    """
    n = g.n
    if n > SUPERGRAPH_N_MAX:
        raise SizeLimitError("n", n, SUPERGRAPH_N_MAX)
    full = (1 << n) - 1
    if not any(left == full or right == full for left, right in _components(g)):
        raise PreconditionError(
            "neither bipartition lies inside a single connected component"
        )
    if g.edge_count == 0:
        raise EmptyGraphError("the elementary-sum oracle excludes the empty graph")
    m = g.mask
    return _elementary_sum(n, m, ((1 << (n * n)) - 1) ^ m)


def permitted_sum_coefficient(h: BipartiteGraph) -> int:
    """Elementary-supergraph sum restricted to subsets of the permitted edges.

    The empty graph is excluded: the sum evaluates to -1, 1, -4, 33, -456
    there for n = 1..5, while the true constant term is 0.
    """
    n = h.n
    if n > PERMITTED_N_MAX:
        raise SizeLimitError("n", n, PERMITTED_N_MAX)
    if h.edge_count == 0:
        raise EmptyGraphError("the permitted-sum oracle excludes the empty graph")
    s = representing_sequence(h)  # raises NotSortedOrderedError if unsorted
    pmask = 0
    for i, j in permitted_edges(s):
        pmask |= 1 << ((i - 1) * n + (j - 1))
    return _elementary_sum(n, h.mask, pmask)


def _elementary_sum(n: int, m: int, free: int) -> int:
    """Sum over elementary (matching-covered, connected) H = m | sub, sub a
    subset of free, of (-1)^|sub|."""
    return sum(int(signs[comps == 1].sum())
               for signs, comps in _supergraph_components(n, m, free))


def _table_bits(n: int, huge: bool) -> int:
    """n^2, once n is a valid side within the table cap."""
    _check_side(n, TABLE_N_MAX_HUGE if huge else TABLE_N_MAX)
    return n * n


# The down-closure over lattice bit s inside a 64-bit word: a position with
# bit s clear (the set bits of `low`) ORs in the position 2^s above it.
_IN_WORD = [(np.uint64(1 << s), np.uint64(low)) for s, low in enumerate((
    0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
    0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF))]
# Words per in-word pass (64 KiB).
_WORD_CHUNK = 1 << 13


def _star_bits(n: int, bits: int) -> np.ndarray:
    """The packed BPM* bits of side n, as max(8, 2^bits / 8) uint8 bytes.

    BPM*(mask) = 0 iff the complement of mask holds a perfect matching, that
    is iff mask lies below full ^ p for a permutation mask p.  So those n!
    complements are seeded, closed downwards and inverted, 64 masks to a
    uint64 word: first over the bits of the word index, then, a slice of
    words at a time, over the six bits inside a word (the closure commutes
    across bits).  The table is independent of the per-graph matching code.
    """
    out = np.zeros(max(8, (1 << bits) >> 3), dtype=np.uint8)
    words = out.view("<u8")
    full = (1 << bits) - 1
    seeds = np.array([full ^ p for p in _permutation_masks(n)], dtype=np.int64)
    np.bitwise_or.at(words, seeds >> 6, np.left_shift(np.uint64(1), (seeds & 63).astype(np.uint64)))
    # On the reversed words, the sweep's upper |= lower is lower |= upper.
    _in_place_sweep(words[::-1], range(max(0, bits - 6)), np.bitwise_or)
    scratch = np.empty(min(len(words), _WORD_CHUNK), dtype=words.dtype)
    for start in range(0, len(words), _WORD_CHUNK):
        chunk = words[start:start + _WORD_CHUNK]
        tmp = scratch[:len(chunk)]
        for shift, low in _IN_WORD[:bits]:
            np.right_shift(chunk, shift, out=tmp)
            np.bitwise_and(tmp, low, out=tmp)
            np.bitwise_or(chunk, tmp, out=chunk)
        np.invert(chunk, out=chunk)
    return out


def _unpack(packed: np.ndarray, start: int, count: int) -> np.ndarray:
    """The int8 0/1 values of masks start .. start + count - 1 of packed bits;
    start is a multiple of 8."""
    piece = packed[start >> 3:(start + count + 7) >> 3]
    return np.unpackbits(piece, count=count, bitorder="little").view(np.int8)


def star_table(n: int, huge: bool = False, packed: bool = False) -> np.ndarray:
    """BPM* values for every edge mask, as an int8 0/1 array of size 2^(n^2).

    With packed=True the same values come 8 masks to a uint8 byte in little
    bit order (as np.packbits(table, bitorder="little")): mask i is bit i % 8
    of byte i // 8, and bits past 2^(n^2) pad the array to one 8-byte word.
    Unpacked, they are expanded in one pass and sit beside the table while it
    is built.
    """
    bits = _table_bits(n, huge)
    star = _star_bits(n, bits)
    return star if packed else _unpack(star, 0, 1 << bits)


# A lattice sweep over bit b runs numpy's inner loop over 2^b contiguous
# entries, so the low bits pay per-call overhead on tiny runs.  The array is
# cut into contiguous blocks of _BLOCK_ROWS rows of 2^_LOW_BITS entries (1 MiB
# of int32), each small enough to stay in cache while all its bits are swept.
_LOW_BITS = 5
_BLOCK_ROWS = 1 << 13


def _lattice_sweep(a: np.ndarray, bits: int, op) -> np.ndarray:
    """In each lattice dimension, set the bit-on half to op(bit-on, bit-off), in place.

    Each block is copied transposed into one buffer, where the low bits run
    along rows of a whole block's length, and copied back; the block's
    remaining bits are swept in place while it is still cached, and only the
    bits above a block touch the whole array.
    """
    low = min(bits, _LOW_BITS)
    rows = a.reshape(-1, 1 << low)
    count = min(len(rows), _BLOCK_ROWS)
    inside = low + count.bit_length() - 1  # bits below this stay within one block
    buf = np.empty((1 << low, count), dtype=a.dtype)
    low_views = [buf.reshape(-1, 2, count << b) for b in range(low)]
    for start in range(0, len(rows), count):
        block = rows[start:start + count]
        buf[...] = block.T
        for view in low_views:
            op(view[:, 1], view[:, 0], out=view[:, 1])
        block[...] = buf.T
        _in_place_sweep(block.reshape(-1), range(low, inside), op)
    _in_place_sweep(a, range(inside, bits), op)
    return a


def _in_place_sweep(a: np.ndarray, bit_range: range, op) -> None:
    for b in bit_range:
        view = a.reshape(-1, 2, 1 << b)
        op(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])


def mobius_transform(values: np.ndarray, bits: int) -> np.ndarray:
    """Subset-lattice inversion in at least int32, exact for 0/1 input: after b
    sweeps an entry is a signed sum of at most 2^b inputs, so |entry| <= 2^25 <
    2^31 up to n = TABLE_N_MAX_HUGE; int64 input stays int64."""
    return _lattice_sweep(values.astype(np.result_type(values.dtype, np.int32)), bits, np.subtract)


def zeta_transform(values: np.ndarray, bits: int) -> np.ndarray:
    """Subset sums: the inverse of the Mobius transform."""
    return _lattice_sweep(values.copy(), bits, np.add)


# The int8 stage of _mobius_nonzeros builds one superblock of 2^_SUPER_BITS
# entries (2 MiB) at a time, a whole number of blocks.
_SUPER_BITS = 21
# Its int32 stage sweeps a block _PRUNE_BITS lattice bits at a time, from the
# top, and keeps only the rows of the bits still to sweep that hold a nonzero.
_PRUNE_BITS = 4


def _live_nonzeros(block: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, values) of the nonzero entries of the Mobius transform of
    block, 2^bits contiguous entries swept in place, offsets ascending.

    The sweeps of the low k bits act on each row of 2^k entries on its own,
    as a bijection, so a row that is all zero once the bits above k are
    swept stays all zero.  After each _PRUNE_BITS bits only the rows with a
    nonzero entry are gathered and swept further, down to rows of one entry.
    """
    rows = block.reshape(1, -1)
    offsets = np.zeros(1, dtype=np.int64)
    top = bits
    while top:
        k = max(0, top - _PRUNE_BITS)
        _in_place_sweep(rows.reshape(-1), range(k, top), np.subtract)
        rows = rows.reshape(-1, 1 << k)
        live = np.flatnonzero(rows.any(axis=1))
        rows = rows[live]
        offsets = offsets[live >> (top - k)] + ((live & ((1 << (top - k)) - 1)) << k)
        top = k
    return offsets, rows.reshape(-1)


def _mobius_nonzeros(packed: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """(masks, coefficients) of the nonzero entries of the Mobius transform of
    the 2^bits 0/1 values in packed (as np.packbits(values, bitorder="little")),
    masks ascending.

    The input is unpacked one int8 superblock of 2^_SUPER_BITS entries at a
    time, so the unpacked table is never built.  Superblock a, indexed by the
    t bits above it, is transformed over those bits by inclusion-exclusion:
    the sum over sub subseteq a of (-1)^|a - sub| unpack(sub), 3^t unpacks in
    all.  Its bits above one block of _BLOCK_ROWS << _LOW_BITS entries are
    then swept in place in int8.  That is exact: t plus those sweeps is the
    number b of bits above a block, every partial sum over 0/1 input then lies
    in [-2^(b-1), 2^(b-1)], inside [-64, 64] for b <= 7, and inside int32 for
    b <= 31.  Each block is then widened into one int32 buffer and swept
    there by _live_nonzeros, which drops the rows that have gone all zero
    as it goes, so only the live part of a block is swept down to one bit.
    """
    size = 1 << bits
    block = min(size, _BLOCK_ROWS << _LOW_BITS)
    block_bits = block.bit_length() - 1
    assert bits - block_bits <= 7, "int8 holds at most 7 subtract sweeps of 0/1 input"
    super_bits = min(bits, _SUPER_BITS)
    span = 1 << super_bits
    buf = np.empty(block, dtype=np.int32)
    masks, coeffs = [], []
    for a in range(size >> super_bits):
        acc = _unpack(packed, a << super_bits, span)
        sub = a
        while sub:
            sub = (sub - 1) & a
            op = np.subtract if (a ^ sub).bit_count() & 1 else np.add
            op(acc, _unpack(packed, sub << super_bits, span), out=acc)
        _in_place_sweep(acc, range(block_bits, super_bits), np.subtract)
        for start in range(0, span, block):
            buf[...] = acc[start:start + block]
            offsets, values = _live_nonzeros(buf, block_bits)
            masks.append(offsets + ((a << super_bits) + start))
            coeffs.append(values)
    return np.concatenate(masks), np.concatenate(coeffs)


def coefficient_table(n: int, huge: bool = False) -> DualPolynomial:
    """Complete exact coefficient table of BPM*_n via the fast transform,
    streamed from the packed BPM* bits: the unpacked table is never built."""
    masks, coeffs = _mobius_nonzeros(star_table(n, huge, packed=True), n * n)
    return DualPolynomial(n, dict(zip(masks.tolist(), coeffs.tolist())))


def verify_counts(
    n: int, huge: bool, closed_form: Callable[[int], DualPolynomial]
) -> tuple[int, int]:
    """(coefficient mismatches, evaluation mismatches) of closed_form(n)
    against the brute-force table over all 2^(n^2) masks; n is checked
    against the table cap before closed_form runs.

    The closed form is zeta-transformed one superblock a of 2^_SUPER_BITS
    entries at a time, as _mobius_nonzeros walks the table: a term counts in
    a iff its bits above the superblock lie inside a's, and the swept
    superblock is compared with the BPM* bits it should sum to.  Only then
    are the streamed Mobius nonzeros built, and a mask's coefficient
    mismatches where they and the closed-form terms differ, over the union
    of their masks.
    """
    star = star_table(n, huge, packed=True)
    bits = n * n
    terms = closed_form(n).terms
    keys = np.fromiter(terms, np.int64, len(terms))
    values = np.fromiter(terms.values(), np.int32, len(terms))
    super_bits = min(bits, _SUPER_BITS)
    span = 1 << super_bits
    acc = np.empty(span, dtype=np.int32)
    eval_failures = 0
    # int32 is exact where it matters: if the closed form equals the Mobius
    # table, each partial zeta sum is a partial Mobius sum of the 0/1 table
    # (|entry| <= 2^25); if not, the first count is already nonzero.
    for a in range(1 << (bits - super_bits)):
        acc[...] = 0
        inside = (keys >> super_bits & ~a) == 0  # add.at: terms share low bits
        np.add.at(acc, keys[inside] & (span - 1), values[inside])
        _lattice_sweep(acc, super_bits, np.add)
        eval_failures += np.count_nonzero(acc != _unpack(star, a << super_bits, span))
    del acc, keys, values
    masks, coeffs = _mobius_nonzeros(star, bits)
    table = dict(zip(masks.tolist(), coeffs.tolist()))
    failures = sum(table.get(m, 0) != terms.get(m, 0) for m in table.keys() | terms.keys())
    return failures, int(eval_failures)
