"""Kernel for matrix groups over cyclotomic rings, and the one exact BFS.

Entries live in Z[x]/Phi_N over a common positive denominator; phi =
deg Phi_N coefficients per entry.  A matrix is a bytes blob of
little-endian int64: [den, c(0,0,0..phi-1), c(0,1,*), ...]; blobs are
content-normalized with den > 0, so equal matrices have equal blobs.
Vectors use the same layout.  A normalized value that does not fit
int64 raises OverflowError.

The blob functions take `red`, the flattened dense reduction table
(`ring_params`): row t (phi ints) expresses x^(phi+t) in the power
basis, t = 0 .. phi-2.  Projective operations (line_canon, line_orbit)
are implemented for quadratic rings only, where red = (p, q) gives the
closed-form inverse.  Everything else reduces mod Phi_N with the few
nonzero terms of x^phi mod Phi_N (`cyclo._fold_terms`).

`bfs` is the level-order search over objects (the blob `line_orbit`),
and `BoundExceeded` is what every search raises past its bound.
`int_bfs` is the same search over the lines of integer coefficient
vectors, the one exact search of the package: every image takes the one
canonical form (`_canon`), whose pivot inverse comes from a
process-wide memo (`_pivot_inverse`).  A large level applies each
generator to a chunk of the frontier at a time as one int64 numpy
product and canonicalizes the images in batch, guarded so that no value
can reach 2^62; a small level, or a chunk the guard refuses, runs the
per-item Python-int step, which has no size limit.  Both give the same
vectors in the same order.  A batched chunk hashes each canonical image
once and looks it up among every vector found, which `_Batch` keeps as
int64 rows filed under their hashes in a `RowIndex`, so only its new
vectors become tuples.  `RowIndex` is the one row store and key index of
the package: `connect.numeric_closure` keeps its elements in one too,
filed under their grid cells.  A group orbit's graph is
undirected: if v -M-> w then w -M^-1-> v.  So where the caller says
which action inverts which (`inverse`), both steps compute each such
edge once and skip the image they already know; the n=4 tables then
canonicalize 4182 images per pass instead of 8304, and the batched
levels of the 2880-point n=6 orbit 34364 rows instead of 57220.
`int_line_orbit` (the braid orbits of `charvar`, classify's projective
group, the G25/G32 line and plane orbits and the regular orbit of
`reflgrp`) runs on it; `IntActions` keeps a matrix list's integer
actions per conductor, so the braid orbits of one linear part build them
once.  A vector or a matrix X is searched as the line through (1, vec X),
on which X -> L X R^T acts by diag(1, L (x) R) (`kron_lift`; a vector
v -> g v is the case R = (1)).  That line's canonical vector is
(den, 0, ..., 0, den vec X): its pivot is a positive integer, so such a
search computes no inverse.  `matrix_orbit` is this search over
matrices, and reads X's blob off the canonical vector; the G25
`closure` and `reflgrp`'s conjugation orbits, which give the
reflections, run on it.

The identity of an exact point is its canonical integer vector:
`line_vector` builds it from Cyclotomic values at an explicit conductor
and `line_coords` reads the values back.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .cyclo import (
    ONE,
    ZERO,
    Cyclotomic,
    _fold_terms,
    _int_inverse,
    _mul_mod,
    _reduce_exponent,
    _times_x,
    cyc,
    euler_phi,
)
from .linalg import Mat

BACKEND = "python"  # named in CLI payloads and benchmark provenance

_INT64 = range(-(1 << 63), 1 << 63)


class BoundExceeded(RuntimeError):
    """A search found more than `bound` distinct items.

    `found` holds the first bound+1 of them, in discovery order.
    """

    def __init__(self, bound, found):
        super().__init__(f"search exceeded its bound of {bound}")
        self.bound = bound
        self.found = found


def bfs(start, step, bound):
    """All items reachable from `start`, in level (discovery) order.

    `step(item)` yields the neighbours of an item; items are hashable and
    equal exactly when they are the same point.  Raises BoundExceeded once
    a (bound+1)-th distinct item appears.
    """
    seen = {start}
    found = [start]
    # `found` doubles as the FIFO queue: items are expanded in the order
    # they were discovered, which is level order
    for item in found:
        for nxt in step(item):
            if nxt not in seen:
                seen.add(nxt)
                found.append(nxt)
                if len(found) > bound:
                    raise BoundExceeded(bound, found)
    return found


def _int_vectors(values, conductor):
    """Integer power-basis vectors of `values` at `conductor`.

    All are scaled by the lcm of their denominators, so their ratios stay.
    """
    promoted = [x.promote(conductor) for x in values]
    den = 1
    for x in promoted:
        den = lcm(den, x.den)
    return [[c * (den // x.den) for c in x.num] for x in promoted]


def _int_action(m, conductor):
    """Integer matrix of the projective action of `m` on coefficient vectors.

    A point of P^(d-1) over Q(zeta_N) is a vector in Z^(d*phi): coordinate
    k occupies slots k*phi .. k*phi+phi-1.  Scaling `m` to integer entries
    does not change its projective action; entry (i, k) then becomes the
    phi x phi block of multiplication by it mod Phi_N.  The result is stored
    by columns: for each input slot, the (output slot, coefficient) pairs
    that are nonzero.  `m` may be rectangular: an r x c matrix gives c*phi
    columns with output slots below r*phi.
    """
    rows, d = m.rows, m.cols
    phi = euler_phi(conductor)
    entries = _int_vectors(m.entries, conductor)
    # column t+1 of a block is x times column t: shift up, and fold the
    # top coefficient back with x^phi mod Phi_N
    terms = _fold_terms(conductor)
    cols = []
    shared = {}  # each distinct pair once, which halves what a cached action holds
    for k in range(d):
        block_cols = [entries[i * d + k] for i in range(rows)]
        for t in range(phi):
            if t:
                block_cols = [_times_x(b, terms) for b in block_cols]
            col = []
            for i, block_col in enumerate(block_cols):
                for r, a in enumerate(block_col):
                    if a:
                        pair = (i * phi + r, a)
                        col.append(shared.setdefault(pair, pair))
            cols.append(tuple(col))
    return cols


def int_apply(cols, v, size=None):
    """The integer matrix `cols` (by columns, see `_int_action`) times v.

    The result has `size` slots, by default as many as v (a square matrix).
    """
    w = [0] * (len(v) if size is None else size)
    for j, x in enumerate(v):
        if x:
            for r, a in cols[j]:
                w[r] += a * x
    return w


@lru_cache(maxsize=4096)
def _pivot_inverse(conductor, key):
    """`_int_inverse` of the primitive pivot `key`, with s as a tuple.

    The memo is shared by every search of the process.  An orbit meets
    few distinct pivots (238 for the 25920-point n=6 orbit), and a pass
    of the n=4 tables about 1700, so 4096 holds them all.  s is a tuple
    so that no caller can change a cached value.
    """
    s, c = _int_inverse(conductor, key)
    return tuple(s), c


def _canon(w, conductor, phi):
    """Canonical integer vector of the point [w].

    The first nonzero coordinate becomes a positive integer c and the
    vector is primitive: read as coordinates over the denominator c, that
    is ProjClass's form with the first nonzero coordinate equal to 1.  The
    zero vector stays as it is.  A pivot that is not an integer is
    divided out by its primitive part's inverse (`_pivot_inverse`).  This
    is the per-item form; `_Batch.canon` computes the same vectors for a
    chunk of a level at once.
    """
    for i in range(0, len(w), phi):
        if any(w[i : i + phi]):
            break
    else:
        return tuple(w)
    if any(w[i + 1 : i + phi]):
        pivot = w[i : i + phi]
        g = gcd(*pivot)
        s, c = _pivot_inverse(conductor, tuple(x // g for x in pivot))
        out = w[:i] + [c * g] + [0] * (phi - 1)
        for k in range(i + phi, len(w), phi):
            out += _mul_mod(conductor, w[k : k + phi], s)
        w = out
    if w[i] < 0:
        w = [-x for x in w]
    g = gcd(*w)
    if g > 1:
        w = [x // g for x in w]
    return tuple(w)


# a level whose frontier is smaller runs the per-item step: converting a
# few vectors to an array costs more than the product saves
_BATCH_MIN = 64
# a batched level runs in chunks of about this many images, which bounds
# its arrays' memory
_CHUNK_IMAGES = 4096
# bound on every int64 value of a batched level, products included
_INT64_LIMIT = 1 << 62


def int_bfs(start, actions, bound, ring, inverse=None):
    """All lines reachable from the line of `start`, in level (discovery) order.

    `start` is a canonical vector (`_canon`), a tuple of ints, at `ring`
    = (conductor, phi), and each action an integer matrix by columns
    (`_int_action`).  Every image is replaced by its canonical vector, so
    the search is projective: a point is a line, and an action matters
    only up to a nonzero scalar.  Raises BoundExceeded with the first
    bound+1 vectors once a (bound+1)-th appears, as `bfs` does, whose
    discovery order this keeps: a level's images are scanned by item,
    then by action.

    A level whose frontier has at least `_BATCH_MIN` vectors runs in
    chunks of consecutive items, each computed by `_Batch` as int64
    arrays if its guard admits it; any other level or chunk runs the
    per-item Python-int step.  The vectors found are the same tuples of
    Python ints either way.  The per-item step recognises a found vector
    through `seen`, which holds the vectors it found itself, or else
    through the batch's index, which holds every found vector that fits
    int64 (`_Batch.find`); a batched chunk recognises its images through
    that index alone (`_Batch.lookup`), and builds tuples only for the
    new ones.

    Both steps give every image the one exact canonical form (`_canon`,
    `_Batch.canon`), taking each pivot's inverse from the process-wide
    `_pivot_inverse`.

    `inverse`, if given, pairs the actions: `inverse[a]` is the action
    whose matrix is the inverse of action a's up to a scalar.  An edge
    v -a-> w then also gives w -inverse[a]-> v, so each such edge is
    computed once: `known` holds, by discovery position, a flag for each
    action whose image of that vector is already known.  Both steps set flag
    inverse[a] on w for every image w they compute from (v, a), whether w
    is new or not; the per-item step skips every action flagged on v, and
    a batched chunk drops the (v, a) flagged before it, ahead of
    canonicalization.  A skipped image is always a vector already found,
    so `found`, its order and the truncation point do not depend on
    `inverse` either.
    """
    count = len(actions)
    # known[p * count + a]: the image of found[p] under action a is known
    known = None if inverse is None else bytearray(count)
    found = [start]
    seen = {start: 0}  # the vectors the per-item step found -> their positions
    batch = _Batch(actions, ring)

    def per_item(lo, hi):
        """The per-item step on found[lo:hi]."""
        for p in range(lo, hi):
            v = found[p]
            for a, cols in enumerate(actions):
                # read afresh: an action that fixes v sets a flag on v itself
                if known is not None and known[p * count + a]:
                    continue
                w = _canon(int_apply(cols, v), *ring)
                q = seen.get(w)
                if q is None and batch.store:
                    q = batch.find(w)
                if q is None:
                    q = seen[w] = len(found)
                    found.append(w)
                    if known is not None:
                        known.extend(bytes(count))
                    if len(found) > bound:
                        raise BoundExceeded(bound, found)
                if known is not None:
                    known[q * count + inverse[a]] = 1

    def batched(lo, hi, frontier):
        """The batched step on found[lo:hi]; False if its guard refuses it."""
        skip = None if known is None else known[lo * count : hi * count]
        out = batch.distinct_images(found[lo:hi], frontier, skip)
        if out is None:
            return False
        rows, hashes, labels, acts = out
        batch.sync(found)
        pos = batch.lookup(rows, hashes)
        new = np.flatnonzero(pos < 0)[: bound + 1 - len(found)]
        first = batch.store.append(rows[new])
        found.extend(map(tuple, rows[new].tolist()))
        if len(found) > bound:
            raise BoundExceeded(bound, found)
        positions = np.arange(first, len(found))
        batch.store.index(hashes[new], positions)
        if known is not None:
            pos[new] = positions
            known.extend(bytes(count * len(new)))
            flags = np.frombuffer(known, dtype=np.uint8)
            flags[pos[labels] * count + np.array(inverse)[acts]] = 1
        return True

    width = max(1, _CHUNK_IMAGES // max(1, count))  # items per chunk
    mark, end = 0, 1  # the level: found[mark:end]
    as_rows = False  # whether the batch stored the level's vectors as rows
    while mark < end:
        all_batched = True
        for lo in range(mark, end, width):
            hi = min(lo + width, end)
            if end - mark >= _BATCH_MIN:
                frontier = batch.store.rows(lo, hi) if as_rows else None
                if batched(lo, hi, frontier):
                    continue
            all_batched = False
            per_item(lo, hi)
        mark, end, as_rows = end, len(found), all_batched
    return found


np = None  # numpy, imported by the first `RowIndex`
# a `RowIndex` stores its rows in blocks of 2**_BLOCK_BITS
_BLOCK_BITS = 14


class RowIndex:
    """Rows stored by position, and an index of int64 keys to positions.

    The rows of `int_bfs`'s found vectors and of `connect.numeric_closure`'s
    elements: `append` stores rows at the next positions, in blocks of
    2**_BLOCK_BITS rows, so that storing never copies the rows already
    stored.  `index` files positions under int64 keys (row hashes, grid-cell
    keys) in sorted runs, each over four times the size of the next, so
    that keys merge in at amortized cost.  A key may have any number of
    positions, and a position any number of keys.  Making one imports
    numpy.
    """

    def __init__(self):
        global np
        import numpy as np

        self.blocks = []
        self.count = 0  # how many rows are stored
        self.runs = []  # sorted (keys, positions)

    def __len__(self):
        return self.count

    def append(self, rows):
        """Store the 2-D array `rows` at the next positions; returns the first."""
        first = done = self.count
        self.count += len(rows)
        block = 1 << _BLOCK_BITS
        at = first & (block - 1)
        end = at + len(rows)
        if at and end <= block:
            # the usual case: the rows fit in the room left in the last block
            self.blocks[-1][at:end] = rows
            return first
        while done < self.count:
            b, at = divmod(done, block)
            if b == len(self.blocks):
                self.blocks.append(np.empty((block, rows.shape[1]), rows.dtype))
            k = min(block - at, self.count - done)
            self.blocks[b][at : at + k] = rows[done - first : done - first + k]
            done += k
        return first

    def row(self, i):
        """The row at position i."""
        return self.blocks[i >> _BLOCK_BITS][i & ((1 << _BLOCK_BITS) - 1)]

    def rows(self, lo, hi):
        """The rows at positions lo .. hi-1; a view when they share a block."""
        b = lo >> _BLOCK_BITS
        if (hi - 1) >> _BLOCK_BITS == b:
            at = lo & ((1 << _BLOCK_BITS) - 1)
            return self.blocks[b][at : at + hi - lo]
        return self.rows_at(np.arange(lo, hi))

    def rows_at(self, positions):
        """The rows at the array `positions`."""
        if len(self.blocks) == 1:
            return self.blocks[0][positions]
        out = np.empty((len(positions), self.blocks[0].shape[1]), self.blocks[0].dtype)
        which = positions >> _BLOCK_BITS
        for b in np.unique(which).tolist():
            sel = np.flatnonzero(which == b)
            out[sel] = self.blocks[b][positions[sel] & ((1 << _BLOCK_BITS) - 1)]
        return out

    def index(self, keys, positions):
        """File the array `positions` under the int64 array `keys`."""
        if not len(keys):
            return
        while self.runs and len(self.runs[-1][0]) <= 4 * len(keys):
            old, old_positions = self.runs.pop()
            keys = np.concatenate([old, keys])
            positions = np.concatenate([old_positions, positions])
        order = keys.argsort(kind="stable")
        self.runs.append((keys[order], positions[order]))

    def positions(self, key):
        """The positions filed under the int `key`, as a list."""
        out = []
        for keys, positions in self.runs:
            lo = hi = keys.searchsorted(key)
            while hi < len(keys) and keys[hi] == key:
                hi += 1
            if hi > lo:
                out += positions[lo:hi].tolist()
        return out

    def pairs(self, keys):
        """Every (i, p) with position p filed under keys[i], as two arrays."""
        # sorted queries search an order of magnitude faster in a large run
        order = keys.argsort()
        query = keys[order]
        qi, pos = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
        for run, positions in self.runs:
            lo = run.searchsorted(query)
            # a run holds most keys once: only a key met again needs its end
            hi = lo + (run.take(lo, mode="clip") == query)
            again = (run.take(hi, mode="clip") == query).nonzero()[0]
            hi[again] = run.searchsorted(query[again], "right")
            counts = hi - lo
            qi.append(order.repeat(counts))
            at = np.arange(counts.sum()) + (lo - counts.cumsum() + counts).repeat(counts)
            pos.append(positions[at])
        return np.concatenate(qi), np.concatenate(pos)


class _Batch:
    """The batched step of `int_bfs`, and its index of the vectors found.

    The actions are stacked side by side into one int64 matrix, so
    frontier @ matrix holds, for each item, its images under every action;
    reshaped to one image per row they come in `bfs`'s scan order.  The
    rows whose edge is already known are dropped before anything else is
    done with them.  The guard: an image is at most max|frontier| times
    the largest row l1-norm of an action, and a canonical vector at most
    max|image| times the largest column l1-norm of its pivot's
    multiplication matrix; a chunk where either bound reaches 2^62 is
    refused (None) and runs the per-item step.  Its canonical rows are
    the vectors `_canon` gives, and it reads the pivot inverses from the
    same memo.

    Each canonical row is hashed once, by `_group_rows`'s random linear
    form, and that hash both groups the chunk's equal rows and looks them
    up among the vectors found.  `store`, a `RowIndex` made by the first
    batched level, holds every found vector by discovery position, and
    indexes each that fits int64 under its hash.  A row is found only if
    it equals a stored vector of its hash exactly (`lookup`, `find`).
    """

    def __init__(self, actions, ring):
        self.actions = actions
        self.ring = ring
        self.pivots = {}  # primitive pivot -> (S, cap), see `_pivot`
        self.norm = None  # set by the first batched level
        self.store = None  # the found vectors, a `RowIndex` made by the same

    def _build(self):
        self.store = RowIndex()
        size = len(self.actions[0])
        self.norm = 0
        for cols in self.actions:
            sums = [0] * size
            for col in cols:
                for r, a in col:
                    sums[r] += abs(a)
            self.norm = max(self.norm, *sums)
        self.matrix = None  # an action too large for int64: never batch
        if self.norm < _INT64_LIMIT:
            self.matrix = np.zeros((size, len(self.actions) * size), dtype=np.int64)
            for k, cols in enumerate(self.actions):
                for j, col in enumerate(cols):
                    for r, a in col:
                        self.matrix[j, k * size + r] = a
        self.weights = _hash_weights(size).tolist()  # `_row_hashes` of one tuple, in `find`

    def distinct_images(self, items, frontier, skip=None):
        """The distinct images of `items` whose edge is not known, or None if refused.

        `frontier` is `items` as an int64 array, or None when the previous
        level was not batched.  `skip`, if given, holds a flag per (item,
        action) in scan order; a flagged image is not computed.  Returns
        (rows, hashes, labels, acts): the distinct canonical images in
        scan order, each the first occurrence of its image, their hashes,
        and for each computed image its row in `rows` and its action.
        """
        if self.norm is None:
            self._build()
        if self.matrix is None:
            return None
        if frontier is None:
            top = max(abs(x) for v in items for x in v)
        else:
            top = int(np.abs(frontier).max())
        if top * self.norm >= _INT64_LIMIT:
            return None
        if frontier is None:
            frontier = np.array(items, dtype=np.int64)
        images = (frontier @ self.matrix).reshape(-1, frontier.shape[1])
        acts = None
        if skip is not None:
            keep = np.frombuffer(skip, dtype=np.uint8) == 0
            images, acts = images[keep], np.flatnonzero(keep) % len(self.actions)
        images = self.canon(images)
        if images is None:
            return None
        hashes = _row_hashes(images)
        labels, first = _group_rows(images, hashes)
        order = first.argsort()  # the classes in scan order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        first = first[order]
        return images[first], hashes[first], rank[labels], acts

    def _pivot(self, key):
        """(S, cap) for multiplication by the inverse of the pivot `key`.

        A block b of phi coefficients times the matrix S is b * s mod
        Phi_N, where key * s == c.  `cap` is the largest |image| entry the
        guard admits: max|image| * (largest column l1-norm of S) < 2^62.
        An S that does not fit int64 is zero with cap -1.
        """
        try:
            return self.pivots[key]
        except KeyError:
            pass
        conductor, phi = self.ring
        s, _ = _pivot_inverse(conductor, key)
        # row t is x^t * s mod Phi_N, so row t+1 is x times row t
        terms = _fold_terms(conductor)
        rows = [list(s)]
        for _ in range(phi - 1):
            rows.append(_times_x(rows[-1], terms))
        norm = max(sum(abs(row[q]) for row in rows) for q in range(phi))
        if norm < _INT64_LIMIT:
            out = np.array(rows, dtype=np.int64), (_INT64_LIMIT - 1) // norm
        else:
            out = np.zeros((phi, phi), dtype=np.int64), -1
        self.pivots[key] = out
        return out

    def canon(self, w):
        """`_canon` of every row of the int64 array `w`, or None if refused.

        Each row whose first nonzero block is not an integer has its blocks
        multiplied by the S of its primitive pivot (`_pivot`, once per
        distinct pivot), which turns the pivot block into c * g and leaves
        the blocks before it zero.  Then each row gets a positive leading
        coordinate and is divided by its gcd.
        """
        conductor, phi = self.ring
        n, size = w.shape
        blocks = w.reshape(n, size // phi, phi)
        lead = (w != 0).argmax(axis=1) // phi  # block 0 for the zero vector
        rows = np.arange(n)
        if phi > 1:
            pivots = blocks[rows, lead]
            hard = np.flatnonzero(pivots[:, 1:].any(axis=1))
            if len(hard):
                p = pivots[hard]
                keys = p // _row_gcds(p)[:, None]
                labels, first = _group_rows(keys)
                mats, caps = zip(*(self._pivot(tuple(k)) for k in keys[first].tolist()))
                # the whole chunk within every cap admits it without a per-row test
                if max(int(w.max()), -int(w.min())) > min(caps):
                    if (np.abs(w[hard]).max(axis=1) > np.array(caps)[labels]).any():
                        return None
                blocks[hard] = blocks[hard] @ np.array(mats)[labels]
        lead_coeff = w[rows, lead * phi]
        w[lead_coeff < 0] *= -1
        g = _row_gcds(w)
        big = np.flatnonzero(g > 1)
        w[big] //= g[big, None]
        return w

    def sync(self, found):
        """Store the vectors the per-item step found since the last store.

        A vector with an entry past int64 cannot equal a batched image, so
        it is stored as a zero placeholder of its position, under no hash.
        """
        new = found[len(self.store) :]
        if not new:
            return
        try:
            rows, fits = np.array(new, dtype=np.int64), slice(None)
        except OverflowError:
            fits = [max(map(abs, v)) < _INT64_LIMIT for v in new]
            rows = np.array([v if ok else (0,) * len(v) for v, ok in zip(new, fits)], np.int64)
            fits = np.array(fits)
        first = self.store.append(rows)
        self.store.index(_row_hashes(rows)[fits], np.arange(first, len(self.store))[fits])

    def lookup(self, rows, hashes):
        """The position of each of `rows` among the stored vectors, or -1.

        One row of each hash is compared with every stored vector of that
        hash.  The other rows of a hash (unequal rows whose hashes collide)
        are looked up as exact tuples in a dict of those stored vectors, so
        the work stays linear even when every hash is the same.
        """
        pos = np.full(len(rows), -1, dtype=np.intp)
        order = hashes.argsort()
        query = hashes[order]
        first = np.ones(len(rows), dtype=bool)  # the first row of each hash
        first[1:] = query[1:] != query[:-1]
        keys, order = query[first], order[first]
        k, q = self.store.pairs(keys)
        r = order[k]
        same = (self.store.rows_at(q) == rows[r]).all(axis=1)
        pos[r[same]] = q[same]
        if not first.all():
            rest = np.setdiff1d(np.arange(len(rows)), order)
            shared = np.isin(keys[k], hashes[rest])
            q = q[shared]
            stored = dict(zip(map(tuple, self.store.rows_at(q).tolist()), q.tolist()))
            pos[rest] = [stored.get(t, -1) for t in map(tuple, rows[rest].tolist())]
        return pos

    def find(self, w):
        """The position of the stored vector equal to the tuple w, or None."""
        # `_row_hashes` of w, read as int64
        h = (sum(map(mul, w, self.weights)) + (1 << 63)) % (1 << 64) - (1 << 63)
        w = list(w)
        for q in self.store.positions(h):
            if self.store.row(q).tolist() == w:
                return q
        return None


@lru_cache(maxsize=None)
def _hash_weights(width):
    rng = random.Random(width)
    return np.array([rng.getrandbits(64) for _ in range(width)], dtype=np.uint64)


def _row_gcds(rows):
    """The gcd of each row of a 2-D int64 array, 0 for a zero row."""
    g = np.abs(rows[:, 0])
    for k in range(1, rows.shape[1]):
        np.gcd(g, rows[:, k], out=g)
    return g


def _row_hashes(rows):
    """A random linear form mod 2^64 of each row of a 2-D int64 array,
    read as int64."""
    h = np.ascontiguousarray(rows).view(np.uint64) @ _hash_weights(rows.shape[1])
    return h.view(np.int64)


def _group_rows(rows, hashes=None):
    """Exact classes of equal rows of a 2-D int64 array.

    Returns (labels, first): the class of each row and the index of each
    class's first row.  Rows are grouped by `np.unique` on their hashes
    (`_row_hashes`, or `hashes` if given); a collision, caught by
    comparing every row with its class's first row, regroups the rows
    exactly on their tuples.
    """
    if hashes is None:
        hashes = _row_hashes(rows)
    _, first, labels = np.unique(hashes, return_index=True, return_inverse=True)
    labels = labels.reshape(-1)
    if (rows == rows[first[labels]]).all():
        return labels, first
    classes = {}
    labels = [classes.setdefault(r, len(classes)) for r in map(tuple, rows.tolist())]
    first = {}
    for i, label in enumerate(labels):
        first.setdefault(label, i)
    return np.array(labels, dtype=np.intp), np.array(list(first.values()), dtype=np.intp)


def line_vector(values, conductor):
    """The canonical integer vector of the line through `values` (`_canon`).

    Every value is promoted to `conductor`, which each of their conductors
    must divide.  Two nonzero vectors give the same tuple exactly when they
    span the same line, whatever conductors their values are stored at, so
    the tuple is the hashable identity of the line.
    """
    flat = [c for v in _int_vectors(values, conductor) for c in v]
    return _canon(flat, conductor, euler_phi(conductor))


def line_coords(w, conductor):
    """The coordinates of the nonzero canonical vector `w`, as Cyclotomic.

    Read over the denominator of its first nonzero entry, `w` has its first
    nonzero coordinate equal to 1 (see `_canon`).
    """
    phi = euler_phi(conductor)
    den = next(x for x in w if x)
    return tuple(
        Cyclotomic._make(conductor, list(w[k : k + phi]), den) for k in range(0, len(w), phi)
    )


class IntActions:
    """The `_int_action` matrices of a fixed list of matrices, per conductor.

    `conductor` is the lcm of the conductors of the matrix entries.  The
    integer matrices at a search conductor are built on first use and kept,
    so every search that shares the object shares them.  At most `_KEEP`
    conductors are kept: building one more drops the conductor built
    first, even if it was used since (a hit does not refresh it).
    """

    _KEEP = 4  # conductors kept; a caller meets one or two

    def __init__(self, mats):
        self.mats = tuple(mats)
        conductor = 1
        for m in self.mats:
            for x in m.entries:
                conductor = lcm(conductor, x.n)
        self.conductor = conductor
        self._at = {}

    def at(self, conductor):
        """The integer actions at `conductor`, a multiple of `self.conductor`."""
        actions = self._at.get(conductor)
        if actions is None:
            actions = [_int_action(m, conductor) for m in self.mats]
            if len(self._at) >= self._KEEP:
                del self._at[next(iter(self._at))]
            self._at[conductor] = actions
        return actions


def int_line_orbit(mats, coords, bound, conductor, inverse=None):
    """Orbit of the line through `coords` under the matrices `mats`.

    The search is one projective `int_bfs` at one conductor N, the lcm of
    `conductor`, the conductors of the coordinates and those of the
    matrix entries: points are canonical coefficient vectors (see
    `_canon`) and each matrix acts through `_int_action`.  `mats` is a
    list of matrices or an `IntActions`, whose integer matrices are then
    reused.  `inverse`, if given, is `int_bfs`'s: mats[inverse[a]] is
    mats[a]^-1 up to a scalar.
    Returns (N, phi, vectors, exceeded): the vectors in discovery order,
    the first being the start's, and whether more than `bound` were
    found, in which case `vectors` holds the first bound + 1 of them.
    """
    if not isinstance(mats, IntActions):
        mats = IntActions(mats)
    conductor = lcm(conductor, mats.conductor, *(x.n for x in coords))
    phi = euler_phi(conductor)
    actions = mats.at(conductor)
    start = line_vector(coords, conductor)
    try:
        found = int_bfs(start, actions, bound, ring=(conductor, phi), inverse=inverse)
        return conductor, phi, found, False
    except BoundExceeded as exc:
        return conductor, phi, exc.found, True


def kron_lift(left, right=None, affine=False):
    """left (x) right: the matrix of X -> left X right^T on the row-major vec(X).

    `left` is d x d and `right` e x e, by default the d x d identity; X is
    d x e, so a vector v -> left v is the case e = 1.  With `affine` the
    result is diag(1, left (x) right), which acts on (1, vec X).
    """
    d = left.rows
    right = Mat.identity(d) if right is None else right
    e = right.rows

    def nonzero(m):
        n = m.rows
        return [(i, k, m[i, k]) for i in range(n) for k in range(n) if not m[i, k].is_zero()]

    rows = [[ZERO] * (d * e) for _ in range(d * e)]
    for i, k, a in nonzero(left):
        for j, l, b in nonzero(right):
            rows[i * e + j][k * e + l] = a * b
    if affine:
        rows = [[ONE] + [ZERO] * (d * e)] + [[ZERO] + row for row in rows]
    return Mat.from_rows(rows)


def matrix_orbit(lifts, start, bound, conductor):
    """Orbit of the d x d matrix `start` under maps X -> left X right^T, as blobs.

    Each map is given by its `kron_lift(left, right, affine=True)`, and
    `lifts` is a list of them or their `IntActions`.  The search is one
    projective `int_line_orbit` at `conductor`, which the entries'
    conductors must divide: X is the line through (1, vec X).  That
    line's canonical vector (den, 0, ..., 0, nums) is X's normalized blob
    with phi - 1 zeros inserted, so every pivot is a positive integer and
    no search step computes an inverse.  Blobs come in discovery order,
    each item's images taken for the lifts in turn.  Raises BoundExceeded,
    holding the first bound+1 blobs, past the bound.
    """
    conductor, phi, found, exceeded = int_line_orbit(
        lifts, (ONE, *start.entries), bound, conductor
    )
    # in place, so each vector is freed as its blob is made
    for i, v in enumerate(found):
        found[i] = _pack(v[:1] + v[phi:])
    if exceeded:
        raise BoundExceeded(bound, found)
    return found


def _pack(ints):
    try:
        return struct.pack(f"<{len(ints)}q", *ints)
    except struct.error:
        big = next(x for x in ints if x not in _INT64)
        raise OverflowError(f"kernel value {big} does not fit int64") from None


def _unpack(blob):
    return struct.unpack(f"<{len(blob) // 8}q", blob)


def _normalize(den, nums):
    if den < 0:
        den = -den
        nums = [-x for x in nums]
    g = den
    for x in nums:
        g = gcd(g, x)
        if g == 1:
            break
    if g > 1:
        den //= g
        nums = [x // g for x in nums]
    return _pack([den] + list(nums))


def pack_values(den, nums):
    """Build a normalized blob from a denominator and coefficient ints."""
    return _normalize(den, list(nums))


def unpack_values(blob):
    vals = _unpack(blob)
    return vals[0], vals[1:]


def _vmul(u, v, phi, red):
    """Product of two coefficient vectors, reduced into the power basis."""
    conv = [0] * (2 * phi - 1)
    for i in range(phi):
        x = u[i]
        if x:
            for j in range(phi):
                y = v[j]
                if y:
                    conv[i + j] += x * y
    out = conv[:phi]
    for t in range(phi - 1):
        c = conv[phi + t]
        if c:
            base = t * phi
            for j in range(phi):
                out[j] += c * red[base + j]
    return out


def _accumulate_row(mv, vn, i, d, phi, red):
    """Row i of (matrix coefficients mv) times vector coefficients vn."""
    acc = [0] * phi
    row_base = 1 + phi * d * i
    for k in range(d):
        u = mv[row_base + phi * k : row_base + phi * (k + 1)]
        if not any(u):
            continue
        v = vn[phi * k : phi * (k + 1)]
        if not any(v):
            continue
        prod = _vmul(u, v, phi, red)
        for j in range(phi):
            acc[j] += prod[j]
    return acc


def mat_vec(m, v, d, phi, red):
    mv = _unpack(m)
    vv = _unpack(v)
    den = mv[0] * vv[0]
    vn = vv[1:]
    out = []
    for i in range(d):
        out.extend(_accumulate_row(mv, vn, i, d, phi, red))
    return _normalize(den, out)


def closure(gens, d, conductor, bound):
    """The group generated by the d x d blob matrices `gens`, as blobs.

    The elements come in BFS order from the identity, each element's
    images being g m for the generators g in turn (`matrix_orbit`).  Raises
    BoundExceeded, holding the first bound+1 elements, past the bound.
    """
    lifts = [kron_lift(from_blob_matrix(g, d, conductor), affine=True) for g in gens]
    return matrix_orbit(lifts, Mat.identity(d), bound, conductor)


def stab_count_line(elements, v, d, phi, red):
    vv = _unpack(v)
    vn = vv[1:]
    pivot = next(k for k in range(d) if any(vn[phi * k : phi * (k + 1)]))
    pv = vn[phi * pivot : phi * (pivot + 1)]
    count = 0
    for m in elements:
        mv = _unpack(m)
        w = [_accumulate_row(mv, vn, i, d, phi, red) for i in range(d)]
        wp = w[pivot]
        ok = True
        for i in range(d):
            if i == pivot:
                continue
            left = _vmul(w[i], pv, phi, red)
            right = _vmul(wp, vn[phi * i : phi * (i + 1)], phi, red)
            if left != right:
                ok = False
                break
        if ok:
            count += 1
    return count


def stab_count_point(elements, v, d, phi, red):
    count = 0
    for m in elements:
        if mat_vec(m, v, d, phi, red) == v:
            count += 1
    return count


def _require_quadratic(phi):
    if phi != 2:
        raise ValueError("projective kernel operations need a quadratic ring")


def _qmul(a0, a1, b0, b1, p, q):
    t = a1 * b1
    return a0 * b0 + t * p, a0 * b1 + a1 * b0 + t * q


def _qinv_scaled(a, b, p, q):
    """(a+bx)^-1 = (a + b q - b x) / N with N = a^2 + a b q - b^2 p."""
    return a + b * q, -b, a * a + a * b * q - b * b * p


def line_canon(v, d, phi, red):
    """Scale so the first nonzero entry is exactly 1, then normalize."""
    _require_quadratic(phi)
    p, q = red
    vv = _unpack(v)
    nums = list(vv[1:])
    pivot = next((k for k in range(d) if nums[2 * k] or nums[2 * k + 1]), None)
    if pivot is None:
        return _pack([1] + nums)
    ca, cb, n = _qinv_scaled(nums[2 * pivot], nums[2 * pivot + 1], p, q)
    out = [0] * (2 * d)
    for k in range(d):
        r0, r1 = _qmul(nums[2 * k], nums[2 * k + 1], ca, cb, p, q)
        out[2 * k] = r0
        out[2 * k + 1] = r1
    return _normalize(n, out)


def line_orbit(gens, v, d, phi, red, bound):
    _require_quadratic(phi)
    return bfs(
        line_canon(v, d, phi, red),
        lambda w: (line_canon(mat_vec(g, w, d, phi, red), d, phi, red) for g in gens),
        bound,
    )


def reflection_indices(elements, d, phi, red):
    """Indices of elements m with rank(m - I) == 1 (fraction-free Gauss)."""
    out = []
    for idx, m in enumerate(elements):
        mv = _unpack(m)
        den = mv[0]
        rows = []
        for i in range(d):
            row = []
            for j in range(d):
                coeffs = list(mv[1 + phi * (i * d + j) : 1 + phi * (i * d + j + 1)])
                if i == j:
                    coeffs[0] -= den
                row.extend(coeffs)
            rows.append(row)
        if _rank_ff(rows, d, phi, red) == 1:
            out.append(idx)
    return out


def _rank_ff(rows, d, phi, red):
    rank = 0
    col = 0
    nrows = len(rows)
    while rank < nrows and col < d:
        piv = next(
            (
                r
                for r in range(rank, nrows)
                if any(rows[r][phi * col : phi * (col + 1)])
            ),
            None,
        )
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][phi * col : phi * (col + 1)]
        for r in range(rank + 1, nrows):
            fv = rows[r][phi * col : phi * (col + 1)]
            if not any(fv):
                continue
            new = []
            for k in range(d):
                u = _vmul(pv, rows[r][phi * k : phi * (k + 1)], phi, red)
                v = _vmul(fv, rows[rank][phi * k : phi * (k + 1)], phi, red)
                new.extend([a - b for a, b in zip(u, v)])
            rows[r] = new
        rank += 1
        col += 1
    return rank


# ---- Cyclotomic <-> blob conversion -------------------------------------------


def ring_params(conductor):
    """(phi, red) for the blob functions over the power basis of Q(zeta_conductor).

    `red` is the flattened integer reduction table: row t gives
    x^(phi+t) in the power basis, t = 0 .. phi-2.  It holds (phi-1) * phi
    ints, so it is built only for the blob functions, whose rings are
    small; the rest of the package folds with `cyclo._fold_terms`.
    """
    phi = euler_phi(conductor)
    return phi, tuple(x for e in range(phi, 2 * phi - 1) for x in _reduce_exponent(conductor, e))


def to_blob_matrix(m, conductor):
    return to_blob_vector(m.entries, conductor)


def from_blob_matrix(blob, d, conductor):
    return Mat(d, d, from_blob_vector(blob, conductor))


def to_blob_vector(vec, conductor):
    den = 1
    promoted = []
    for e in vec:
        pe = cyc(e).fit(conductor)
        promoted.append(pe)
        den = lcm(den, pe.den)
    nums = []
    for pe in promoted:
        f = den // pe.den
        nums.extend(c * f for c in pe.num)
    return pack_values(den, nums)


def from_blob_vector(blob, conductor):
    phi = euler_phi(conductor)
    den, nums = unpack_values(blob)
    return tuple(
        Cyclotomic._make(conductor, list(nums[phi * k : phi * (k + 1)]), den)
        for k in range(len(nums) // phi)
    )
