"""Exhaustive counting kernels: dot-product histograms, the energies D and M,
the apex reduction to isosceles triples one dimension down, and triangle
counts in every variant used by the experiments.

Conventions, fixed once for the whole package:

* All tuple counts are over ordered tuples, so they match the sum-of-squares
  algebra of histograms exactly (D = sum over apexes of sum_t n_t^2, etc.).
* "Distance" means the finite-field norm of the difference; it can vanish
  for distinct points.
* Triangle taxonomy over ordered triples (x, y, z) with ||x-y|| = ||x-z||:
    t_nde   equal sides nonzero and base ||y-z|| nonzero
    t_de    a zero side: equal sides zero, or base zero
    t_star  base nonzero (equal sides unconstrained)
  t_nde + t_de = isosceles_total partitions the isosceles triples and
  t_nde <= t_star. The raw count with equal nonzero sides but unconstrained
  base is kept as t_nde_raw, and t_zero_triples counts triples with three
  zero sides.
* degenerate_pairs counts ordered pairs (x, y), diagonal included, with
  ||x-y|| = 0.

`profile(E)` is the entry point: every count of one set is a field of the
`Profile` it returns. `dot_histogram`, `product_set` (both also for E x F)
and `count_M` are the Gram-only path. `profile` streams the Gram matrix
x.y mod p in row blocks of about _BLOCK_BYTES, which stay in cache
(`_gram_blocks`, which forms every product of two point arrays here; the
Gram-only path and the class histograms share it, and only the int64
matrix-vector products of `_packed_keys` and `scan_reduction_identity` are
formed elsewhere). One product a block: the distances come from the Gram
block and the row norms, ||x - y|| = ||x|| + ||y|| - 2 x.y, reduced by
integer floor division like the Gram itself. One pass takes
the product histogram (prod and M), per-apex dot histograms (D), per-apex
distance histograms (isosceles total, zero equal sides, degenerate pairs)
and the pairs i < j at distance zero and at base distance zero, which on a
paraboloid is ||y - z|| = (y_d - z_d)^2, a lookup in a table of squares.
Each scan runs only where its sum of m squares is isotropic: m >= 3, or
m = 2 and p = 1 mod 4 (Chevalley-Warning; -1 is a square). So over
p = 3 mod 4 there is no base scan on a paraboloid in F_p^3 and no scan at
all in the plane.

What remains are sums over those zero pairs (y, z), i < j, each counted
twice for (y, z) and (z, y), plus the n diagonal pairs. With w = y - z:

* c_base (isosceles triples with zero base): dist(x, y) = dist(x, z) iff
  2 x.w = ||y|| - ||z||. Writing w = t u with u's first nonzero coordinate
  1 (the projective class of w), the agreeing apexes are those with
  x.u = (||y|| - ||z||) / (2t).
* D* removes the triples with x.y = x.z over the base-zero pairs, that is
  x.u = 0: the same lookup with target 0, u the class of the full y - z.
* So one histogram of x.u per distinct class u answers every pair. Both
  pair lists share one class table (grouped by a sort of packed keys), and
  the histograms are built in the same byte-sized blocks of classes. In the
  plane there are at most 2 classes, the slope +-i lines; in high dimension
  the class count can approach the pair count and takes the same path.
* Pairs that share a difference y - z share u and t. Beyond a block of
  pairs, each point is packed once into keys of base-2p digits, so the
  difference of two points' keys has digits y_c - z_c in (-p, p) and
  determines y - z: one word a pair (per key), sorted once. The class and
  1 / (2t) are then found once per distinct difference, and a pair only
  gathers them. On the lifted constructions many pairs share a difference;
  on a random set nearly every pair has its own, the memory worst case.
* c_both (all three sides zero) is trace(Z^3) for the zero-distance matrix
  Z, diagonal included: n + 6m + 6T, with m the zero pairs i < j and T the
  triangles of their graph. Row i of a packed adjacency holds the
  neighbours j > i as n bits, padded to 64-bit words so that the popcount
  takes whole words; T sums popcount(bits[i] & bits[j]) over the edges
  (i, j), which meets each triangle i < j < k once, at its edge (i, j).

A diagonal pair agrees at every apex, so the diagonal adds n^2 to c_base and
to the D* correction. No n x n array is allocated: the zero-pair lists,
their per-pair arrays and the adjacency are held within ZERO_PAIR_BYTE_CAP,
and the rest within a few blocks of _BLOCK_BYTES, O(n) words and p-entry
tables, which the default enumeration cap bounds (2p entries for `profile`).

Every block is a BLAS product in the narrowest exact tier, cast to
integers of the same width and reduced mod p by integer floor division. The
tier follows from bound = columns x max|A| x max|B|, which bounds every
partial sum (for the Gram of a set, d (p - 1)^2 at most), and a pass has
one tier, its Gram's:

* bound < 2^24: float32, int32 blocks (up to p = 2897 in the plane);
* bound < 2^53: float64, int64 blocks (p up to about 2^26.5 / sqrt(d));
* bound < 2^63: an int64 product;
* beyond, int64 would wrap: `_gram_blocks` raises ResourceLimitError (exit
  2 on the command line).

Below each float limit every partial sum is an integer the float type holds,
so the product is exact whatever the summation order. The narrower tier
moves half the bytes through the product, the cast and the reduction.

Counts are returned as Python ints (arbitrary precision); numpy int64 is
used only for intermediates whose ranges stay well inside 63 bits at the
supported set sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .varieties import (
    PointSet,
    ResourceLimitError,
    _check_cap,
    _norms,
    bar_projection,
    on_paraboloid,
    restrict_nonzero_base,
)

# Byte budget for the zero-pair lists, their per-pair class arrays
# (`_pair_bytes` each) and the zero-distance adjacency, which reach |X|^2 / 2
# pairs on a fully degenerate set; the rest is held in blocks.
ZERO_PAIR_BYTE_CAP = 800_000_000
_BLOCK_BYTES = 1 << 19  # bytes of a block; a pass holds about four, which stay in cache
# The factor by which the triangle-bound checks let a count exceed its
# envelope: the envelopes hold up to constants the bounds leave unstated.
TRIANGLE_BOUND_CONSTANT = 100.0
# The triangle counts of a Profile, in the order `ffgeom triangles` prints them.
TRIANGLE_KEYS = ("t_nde", "t_de", "t_star", "degenerate_pairs", "t_nde_raw", "t_zero_triples", "isosceles_total")


def _block_rows(row_bytes: int) -> int:
    """Rows in a block of about _BLOCK_BYTES when one row takes row_bytes."""
    return max(1, _BLOCK_BYTES // row_bytes)


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p, in place: floor division by a scalar beats %."""
    x -= x // p * p
    return x


def _gram_blocks(A: np.ndarray, B: np.ndarray, p: int):
    """An iterator of (lo, (A[lo:hi] @ B.T) % p) over row blocks of A of
    about _BLOCK_BYTES.

    No entry of a product exceeds bound = A.shape[1] max|A| max|B| in
    absolute value, nor does any partial sum. Below 2^24 every one is an
    integer that float32 holds exactly, so a BLAS float32 product is exact
    in any summation order and the block is int32 (where p - 1 fits it too);
    below 2^53 the same holds for float64 and an int64 block; up to 2^63 the
    product is taken in int64, and beyond it int64 would wrap, so that
    raises ResourceLimitError, at the call and so before the caller's
    p-sized tables."""
    bound = A.shape[1] * int(np.abs(A).max(initial=0)) * int(np.abs(B).max(initial=0))
    if bound >= 1 << 63:
        raise ResourceLimitError(f"dot products up to {bound} overflow int64 at p = {p}")
    if bound < 1 << 24 and p < 1 << 31:
        dtype = np.float32
    else:
        dtype = np.float64 if bound < 1 << 53 else np.int64
    a, bt = A.astype(dtype), B.T.astype(dtype)
    rows, ints = _block_rows(8 * max(len(B), p)), f"i{a.itemsize}"
    return ((lo, _mod((a[lo : lo + rows] @ bt).astype(ints, copy=False), p)) for lo in range(0, len(a), rows))


def _row_histograms(block: np.ndarray, p: int) -> np.ndarray:
    """(rows, p) array: the histogram of each row's values; overwrites block."""
    rows = block.shape[0]
    # a block of two or more rows has rows * p <= _BLOCK_BYTES / 8: int32 holds it
    block += np.arange(0, p * rows, p, dtype=block.dtype)[:, None]
    return np.bincount(block.ravel(), minlength=p * rows).reshape(rows, p)


def _inverses(a: np.ndarray, p: int) -> np.ndarray:
    """The inverse mod p of each (nonzero) entry of a."""
    vals = np.unique(a)
    inv = np.array([pow(int(t), -1, p) for t in vals], dtype=np.int64)
    return inv[np.searchsorted(vals, a)]


def dot_histogram(E: PointSet, F: PointSet | None = None) -> tuple[int, ...]:
    """r(t) for t = 0, ..., p - 1: the ordered pairs (x, y) in E x F with x.y = t."""
    F = E if F is None else F
    if E.field != F.field or E.dim != F.dim:
        raise ValueError("point sets must share field and dimension")
    p = E.field.p
    blocks = _gram_blocks(E.array, F.array, p)
    _check_cap(p, None, "histogram-table entries")  # the p-entry histograms, whatever the set size
    counts = np.zeros(p, dtype=np.int64)
    for _, gram in blocks:
        counts += np.bincount(gram.ravel(), minlength=p)
    return tuple(counts.tolist())


def product_set(E: PointSet, F: PointSet | None = None) -> set[int]:
    """The set of dot products {x.y : x in E, y in F}."""
    return {t for t, c in enumerate(dot_histogram(E, F)) if c}


def count_M(E: PointSet) -> int:
    """Ordered quadruples (x, y, w, z) in E^4 with x.y = w.z."""
    return sum(c * c for c in dot_histogram(E))


@dataclass(frozen=True)
class Profile:
    """Every count of one point set, from one pass over its pairs."""

    prod_size: int
    M: int
    D: int
    D_star: int
    t_nde: int
    t_de: int
    t_star: int
    degenerate_pairs: int
    t_nde_raw: int
    t_zero_triples: int
    isosceles_total: int
    # work counters: pairs i < j at distance zero and at base distance zero,
    # and the distinct projective classes of their differences y - z
    zero_pairs: int
    base_zero_pairs: int
    isotropic_classes: int


def _upper_zeros(lo: int, block: np.ndarray, target: int | np.ndarray = 0) -> np.ndarray:
    """(2, k) array, in row-major order, of the pairs i < j with block[i - lo,
    j] equal to target (a scalar or an array over the columns j >= lo)."""
    right = block[:, lo:]
    i, j = np.divmod(np.flatnonzero(right == target), right.shape[1])
    upper = i < j
    return np.stack([i[upper], j[upper]]) + lo


def _pair_bytes(dim: int) -> int:
    """Bytes `profile` holds per zero pair at its peak: the pair's two
    indices, and, when every pair has its own difference y - z, that
    difference's class row u of dim words and at most six more words of key,
    sort scratch, class index and leading-coordinate inverse."""
    return 8 * (dim + 8)


def _packed_keys(rows: np.ndarray, base: int) -> list[np.ndarray]:
    """Keys that pack k consecutive columns of rows (entries in [0, base)) as
    base-`base` digits, the first most significant, with k the largest such
    that base^k < 2^63; comparing the keys in turn compares the rows
    lexicographically."""
    d, k = rows.shape[1], 1
    while base ** (k + 1) < 1 << 63:
        k += 1
    weights = base ** np.arange(k - 1, -1, -1)  # base^(k-1), ..., base, 1
    return [rows[:, c : c + k] @ weights[max(0, c + k - d) :] for c in range(0, d, k)]


def _distinct(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(first, pos): the index of one entry of each distinct key tuple, in
    increasing order of the tuples, and the position in first of each
    entry's tuple. Empties keys, so its arrays go before pos is built."""
    # one key: argsort's quicksort beats the merge sort of lexsort
    order = np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for key in keys:
        key = key[order]
        new[1:] |= key[1:] != key[:-1]
    keys.clear()
    del key  # the peak stays within _pair_bytes
    ids = np.cumsum(new)
    ids -= 1
    pos = np.empty_like(order)
    pos[order] = ids
    return order[new], pos


def _class_agreements(arr, nrm, p, pairs, k, base_from):
    """(off_base, off_star, classes) over zero pairs (y, z) = pairs[:, e].

    off_base sums, over the distance-zero pairs e < k, the apexes x with
    x.u = (||y|| - ||z||) / (2t); off_star sums, over the base-zero pairs
    e >= base_from, the x with x.u = 0, where y - z = t u and u is the
    class of y - z (module docstring). Past a block of d-wide rows the
    pairs are grouped by their difference y - z, from one packed key a
    pair, so that u and 1 / (2t) are found once per distinct difference.
    The dels keep the peak per pair within `_pair_bytes`.
    """
    i, j = pairs
    step = _block_rows(8 * arr.shape[1])
    if len(i) > step:  # more d-wide rows than a block holds: one row per distinct difference
        # a point's base-2p key packs digits in [0, p), so the difference of
        # two keys packs digits y_c - z_c in (-p, p) and determines y - z
        first, diff = _distinct([key[i] - key[j] for key in _packed_keys(arr, 2 * p)])
        y, z = i[first], j[first]
        del first
    else:
        (y, z), diff = pairs, slice(None)
    w = arr[y]
    for lo in range(0, len(w), step):
        w[lo : lo + step] -= arr[z[lo : lo + step]]
    del y, z
    w %= p
    inv = _inverses(w[np.arange(len(w)), (w != 0).argmax(axis=1)], p)
    w *= inv[:, None]
    w %= p
    first, cls = _distinct(_packed_keys(w, p))  # the classes in lexicographic order
    classes = w[first]
    del w, first
    cls = cls[diff]
    inv = (inv * ((p + 1) // 2) % p)[diff][:k]  # 1 / (2t)
    del diff
    target = (nrm[i[:k]] - nrm[j[:k]]) * inv % p
    del inv
    base_counts = np.bincount(cls[base_from:], minlength=len(classes))
    # (class, target) of each distance-zero pair as one sorted flat index, so
    # the pairs of a block of classes form one span
    flat = np.sort(cls[:k] * p + target)
    off_base = off_star = 0
    for c0, block in _gram_blocks(classes, arr, p):
        hist = _row_histograms(block, p)
        a, b = np.searchsorted(flat, [c0 * p, (c0 + len(hist)) * p])
        off_base += int(hist.ravel()[flat[a:b] - c0 * p].sum())
        off_star += int(hist[:, 0] @ base_counts[c0 : c0 + len(hist)])
    return off_base, off_star, len(classes)


def _adjacency_width(n: int) -> int:
    """Bytes a row of the packed n-vertex adjacency takes: n bits, padded to
    whole 64-bit words."""
    return 8 * -(-n // 64)


def _triangles(i: np.ndarray, j: np.ndarray, n: int) -> int:
    """Triangles of the graph on n vertices with the edges (i, j), i < j,
    each met once, at the edge between its two smallest vertices (module
    docstring); the edges go in chunks of about _BLOCK_BYTES."""
    width = _adjacency_width(n)
    bits = np.zeros((n, width), dtype=np.uint8)  # row i: the neighbours j > i
    np.bitwise_or.at(bits, (i, j >> 3), np.left_shift(1, j & 7).astype(np.uint8))
    words = bits.view(np.uint64)
    step = _block_rows(3 * width)
    chunks = (slice(lo, lo + step) for lo in range(0, len(i), step))
    return sum(int(np.bitwise_count(words[i[c]] & words[j[c]]).sum()) for c in chunks)


def profile(E: PointSet) -> Profile:
    """prod, M, D, D* and every triangle count of E in O(|E|^2) time.

    D* measures the base ||ybar - zbar|| on a paraboloid (there ybar.zbar =
    y.z - y_d z_d and ||ybar|| = y_d) and all coordinates elsewhere.
    """
    p, n, arr = E.field.p, len(E), E.array
    last = arr[:, -1] if on_paraboloid(E) else None
    # off an isotropic form no two distinct points are at zero (base) distance
    scan_dist = E.field.isotropic(E.dim)
    scan_base = last is not None and E.field.isotropic(E.dim - 1)
    blocks = _gram_blocks(arr, arr, p)  # may raise: before the p-sized tables
    nrm = _norms(arr, p)
    _check_cap(2 * p, None, "square-table entries")  # square, the largest of them, whatever n
    # square[k + p] = k^2 = ||y - z|| - ||ybar - zbar|| at k = y_d - z_d
    square = np.arange(2 * p) ** 2 % p
    dots = np.zeros(p, dtype=np.int64)
    d_total = total_iso = eq_zero_sides = degenerate = m = m_base = 0
    empty = np.zeros((2, 0), dtype=np.intp)
    dist_found, base_found = [empty], [empty]
    for lo, gram in blocks:
        # ||x - y|| = ||x|| + ||y|| - 2 x.y, each entry in (-2p, 2p) before
        # it is reduced; in the int32 tier every norm is a diagonal Gram
        # entry, below the bound 2^24, so the sum cannot wrap
        norms = nrm.astype(gram.dtype, copy=False)
        dist = norms[lo : lo + len(gram), None] + norms
        dist -= gram
        dist -= gram
        _mod(dist, p)
        if scan_dist:
            dist_found.append(_upper_zeros(lo, dist))
            m += dist_found[-1].shape[1]
        if scan_base:
            base_found.append(_upper_zeros(lo, dist, square[last[lo : lo + len(dist), None] + p - last[lo:]]))
            m_base += base_found[-1].shape[1]
        held = (m + m_base) * _pair_bytes(E.dim) + (n * _adjacency_width(n) if m else 0)
        if held > ZERO_PAIR_BYTE_CAP:
            raise ResourceLimitError(f"zero pairs of {n} points exceed {ZERO_PAIR_BYTE_CAP} bytes")
        hist = _row_histograms(gram, p)
        dots += hist.sum(axis=0)
        d_total += int(np.vdot(hist, hist))
        hist = _row_histograms(dist, p)
        total_iso += int(np.vdot(hist, hist))
        zeros = hist[:, 0]
        eq_zero_sides += int(np.vdot(zeros, zeros))
        degenerate += int(zeros.sum())

    # distance-zero pairs first, then base-zero pairs (the same pairs off a
    # paraboloid, where the base is all coordinates)
    pairs = np.concatenate(dist_found + base_found, axis=1)
    del dist_found, base_found
    base_from = 0 if last is None else m
    off_base = off_star = classes = zero_triangles = 0
    if pairs.size:
        off_base, off_star, classes = _class_agreements(arr, nrm, p, pairs, m, base_from)
        zero_triangles = _triangles(*pairs[:, :m], n) if m else 0

    c_base = n * n + 2 * off_base
    c_both = n + 6 * m + 6 * zero_triangles
    t_de = eq_zero_sides + c_base - c_both
    dots = dots.tolist()  # Python ints: an entry reaches n^2, and its square wraps int64
    return Profile(
        prod_size=sum(1 for c in dots if c),
        M=sum(c * c for c in dots),
        D=d_total,
        D_star=d_total - n * n - 2 * off_star,
        t_nde=total_iso - t_de,
        t_de=t_de,
        t_star=total_iso - c_base,
        degenerate_pairs=degenerate,
        t_nde_raw=total_iso - eq_zero_sides,
        t_zero_triples=c_both,
        isosceles_total=total_iso,
        zero_pairs=m,
        base_zero_pairs=m if last is None else m_base,
        isotropic_classes=classes,
    )


def _apexes(arr: np.ndarray, p: int) -> np.ndarray:
    """`oracle.apex` of every row of arr, as an array one column narrower.
    Refuses the p where the products of d coordinates below p, here and in
    `scan_reduction_identity`, can wrap int64."""
    d = arr.shape[1]
    if d * (p - 1) ** 2 >= 1 << 63:
        raise ValueError(f"products of {d} coordinates overflow int64 at p = {p}")
    base = arr[:, :-1]
    nb = _norms(base, p)
    if not nb.all():
        raise ValueError("apex undefined: base norm is zero")
    return base * (p - _inverses(2 * nb % p, p))[:, None] % p


def apex_set(E: PointSet) -> PointSet:
    """Apply the apex map to every point (all must have nonzero base norm)."""
    return PointSet.build(E.field, E.dim - 1, _apexes(E.array, E.field.p))


def _equal_pairs(keys: np.ndarray) -> int:
    """Ordered pairs (y, z) with keys[y] == keys[z]."""
    counts = np.unique(keys, return_counts=True)[1]
    return int((counts * counts).sum())


def scan_reduction_identity(E: PointSet) -> tuple[int, int]:
    """Check the reduction over all triples (x, y, z) in E^3 with apex x
    restricted to nonzero base norm. Returns (triples checked, mismatches)."""
    p, arr = E.field.p, E.array
    ybar = arr[:, :-1]
    ynrm = _norms(ybar, p)
    apexes = arr[ynrm != 0]
    images = _apexes(apexes, p)
    mismatches = 0
    for x, a, anrm in zip(apexes, images, _norms(images, p)):
        dx = (arr @ x) % p
        adist = (anrm - 2 * (ybar @ a % p) + ynrm) % p
        # pairs where exactly one side holds: |lhs| + |rhs| - 2 |lhs and rhs|
        mismatches += _equal_pairs(dx) + _equal_pairs(adist) - 2 * _equal_pairs(dx * p + adist)
    return len(apexes) * len(E) ** 2, mismatches


def inequality_chain(E: PointSet) -> dict:
    """Verify |prod(E)| * M >= |E|^4, M <= |E| * D, and (for paraboloid sets)
    that D of the base-restricted set is at most the isosceles-triple total
    of the apex-union-base projection. The restricted_* and reduction_* keys
    appear for paraboloid sets only; "ok" is the AND of every *_ok check."""
    pr, n = profile(E), len(E)
    report = dict(
        size=n,
        prod_size=pr.prod_size,
        m_value=pr.M,
        d_value=pr.D,
        cs_product_ok=pr.prod_size * pr.M >= n**4,
        cs_energy_ok=pr.M <= n * pr.D,
    )
    if on_paraboloid(E) and E.dim >= 2:
        Er = restrict_nonzero_base(E)
        d_r = profile(Er).D
        iso = profile(bar_projection(Er).union(apex_set(Er))).isosceles_total
        report.update(
            restricted_size=len(Er),
            restricted_d=d_r,
            reduction_iso_total=iso,
            reduction_ok=d_r <= iso,
        )
    report["ok"] = all(v for k, v in report.items() if k.endswith("_ok"))
    return report


def triangle_bound_report(X: PointSet) -> dict:
    """Compare t_nde + t_de with |X|^3/q + q^(n-1) |X|^((n+4)/(n+2))
    + q^((n-2)/2) |X|^2; ok when the total is at most
    TRIANGLE_BOUND_CONSTANT times that envelope."""
    q = X.field.p
    n = X.dim
    m = len(X)
    bound = m**3 / q + q ** (n - 1) * m ** ((n + 4) / (n + 2)) + q ** ((n - 2) / 2) * m**2
    total = profile(X).isosceles_total
    return {
        "size": m,
        "isosceles_total": total,
        "bound": bound,
        "ratio": total / bound if bound else float("inf"),
        "ok": total <= TRIANGLE_BOUND_CONSTANT * bound,
    }


def counts_json(E: PointSet) -> dict:
    """The fixed-key JSON rendering of every count for one point set."""
    pr = profile(E)
    keys = ("prod_size", "D", "D_star", "M", "t_nde", "t_de", "t_star", "degenerate_pairs")
    return {"p": E.field.p, "d": E.dim, "set_size": len(E), **{k: getattr(pr, k) for k in keys}}
