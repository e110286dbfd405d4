"""Braid words, the Hurwitz action on free-group tuples, and coalescence words.

Conventions

* A braid word stores letters left to right as written; the letter
  ``+i`` is sigma_i and ``-i`` its inverse.
* Words act on tuples right to left, so ``act(w1 + w2, t) ==
  act(w1, act(w2, t))``.  This matches the antimorphism property of the
  Hurwitz map and makes the matrix of a concatenation the left-to-right
  product of the letter matrices.
* The generator sigma_i sends a_i -> a_i a_{i+1} a_i^-1 and
  a_{i+1} -> a_i.  (This differs from one printed action table by the
  conjugation inverse; only this version preserves a_1 ... a_n.)
"""

from __future__ import annotations

from dataclasses import dataclass


class NotPureWord(ValueError):
    pass


@dataclass(frozen=True)
class BraidWord:
    """Word in the braid group on `strands` strands."""

    strands: int
    letters: tuple[int, ...]

    def __post_init__(self):
        for s in self.letters:
            if s == 0 or abs(s) >= self.strands:
                raise IndexError(f"letter {s} out of range for {self.strands} strands")

    def __mul__(self, other):
        if self.strands != other.strands:
            raise IndexError("strand counts differ")
        return BraidWord(self.strands, self.letters + other.letters)

    def inverse(self):
        return BraidWord(self.strands, tuple(-s for s in reversed(self.letters)))

    def permutation(self):
        """Permutation induced on strand positions, as a tuple image."""
        perm = list(range(self.strands))
        for s in self.letters:
            i = abs(s) - 1
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        return tuple(perm)

    def is_pure(self):
        return self.permutation() == tuple(range(self.strands))


def braid_word(strands, *letters):
    return BraidWord(strands, tuple(letters))


# ---- free group words ------------------------------------------------------


def free_mul(*words):
    out = []
    for w in words:
        for s in w:
            if out and out[-1] == -s:
                out.pop()
            else:
                out.append(s)
    return tuple(out)


def free_inv(word):
    return tuple(-s for s in reversed(word))


@dataclass(frozen=True)
class FreeTuple:
    """Tuple of n freely reduced words in the generators a_1..a_n."""

    n: int
    words: tuple[tuple[int, ...], ...]

    @staticmethod
    def generators(n):
        return FreeTuple(n, tuple((i + 1,) for i in range(n)))

    def product(self):
        return free_mul(*self.words)


def hurwitz_act(word, t):
    """Hurwitz action of a braid word on a free tuple (rightmost letter first)."""
    if word.strands != t.n:
        raise IndexError("strand count does not match tuple length")
    words = list(t.words)
    for s in reversed(word.letters):
        i = abs(s) - 1
        if s > 0:
            words[i], words[i + 1] = free_mul(words[i], words[i + 1], free_inv(words[i])), words[i]
        else:
            words[i], words[i + 1] = words[i + 1], free_mul(
                free_inv(words[i + 1]), words[i], words[i + 1]
            )
    return FreeTuple(t.n, tuple(words))


# ---- distinguished words ---------------------------------------------------


def sigma_ij(n, i, j):
    """The band braid sigma_{i,j} = (s_{i+1}..s_{j-1})^-1 s_i (s_{i+1}..s_{j-1}).

    This is the unique word shape whose Hurwitz action, under the
    composition convention above, is a_i -> (a_i..a_{j-1}) a_j (..)^-1,
    a_j -> (a_{i+1}..a_{j-1})^-1 a_i (..); the braid-square of it gives
    the pure generator the translation-part matrices implement.
    """
    if not (1 <= i < j <= n):
        raise IndexError(f"need 1 <= i < j <= n, got ({i},{j},{n})")
    pre = [-s for s in range(j - 1, i, -1)]
    post = list(range(i + 1, j))
    return BraidWord(n, tuple(pre + [i] + post))


def pure_sigma_ij(n, i, j):
    """The pure braid sigma_{i,j}^2."""
    w = sigma_ij(n, i, j)
    return w * w


@dataclass(frozen=True)
class PureLetter:
    """sigma_{i,j}^(2*sign), a generator of the pure braid group or its inverse."""

    i: int
    j: int
    sign: int = 1

    def word(self, n):
        w = pure_sigma_ij(n, self.i, self.j)
        return w if self.sign > 0 else w.inverse()


def pure_word_to_braid(n, letters):
    """Concatenate pure letters into a braid word on n strands."""
    out = BraidWord(n, ())
    for let in letters:
        out = out * let.word(n)
    return out


def phi_kl(letters, k, ell, n):
    """Strand-multiplication morphism PB_k -> PB_n on a pure word.

    The l-th strand is replaced by n - k + 1 parallel strands.  Input is
    a sequence of PureLetter over k strands; output is a braid word over
    n strands.
    """
    if not (3 <= k < n):
        raise IndexError(f"need 3 <= k < n, got k={k}, n={n}")
    if not (1 <= ell <= k):
        raise IndexError(f"need 1 <= ell <= k, got {ell}")
    if not all(isinstance(let, PureLetter) for let in letters):
        raise NotPureWord("phi_kl needs a word in pure generators sigma_{i,j}^2")
    d = n - k
    out = BraidWord(n, ())
    for let in letters:
        i, j = let.i, let.j
        if not (1 <= i < j <= k):
            raise IndexError(f"pure letter ({i},{j}) out of range for k={k}")
        if j < ell:
            img = pure_sigma_ij(n, i, j)
        elif ell < i:
            img = pure_sigma_ij(n, i + d, j + d)
        elif i < ell < j:
            img = pure_sigma_ij(n, i, j + d)
        elif j == ell:  # i < j = ell: twist of strand i with the whole block
            img = BraidWord(n, ())
            for m in range(ell + d, ell - 1, -1):
                img = img * pure_sigma_ij(n, i, m)
        else:  # i = ell < j: twist of the block with strand j + d
            img = BraidWord(n, ())
            for m in range(ell + d, ell - 1, -1):
                img = img * pure_sigma_ij(n, m, j + d)
        out = out * (img if let.sign > 0 else img.inverse())
    return out


def check_braid_relations(mats, sphere=False):
    """Check sigma_i |-> mats[i-1] respects the braid relations exactly.

    With sphere=True, additionally require s_1..s_{n-1} s_{n-1}..s_1 to be
    scalar.
    """
    m = len(mats)
    for a in range(m):
        for b in range(a + 1, m):
            x, y = mats[a], mats[b]
            if b - a == 1:
                if x @ y @ x != y @ x @ y:
                    return False
            else:
                if x @ y != y @ x:
                    return False
    if sphere:
        prod = None
        for x in list(mats) + list(reversed(mats)):
            prod = x if prod is None else prod @ x
        if not prod.is_scalar():
            return False
    return True


# ---- text format -----------------------------------------------------------
# whitespace separated tokens: s3, s3^-1, p(1,4), p(1,4)^-1


def parse_braid_word(text, n):
    letters = []
    for token in text.split():
        body, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        if body.startswith("s"):
            idx = int(body[1:])
            seq = BraidWord(n, (idx,))
        elif body.startswith("p(") and body.endswith(")"):
            i, j = (int(x) for x in body[2:-1].split(","))
            seq = pure_sigma_ij(n, i, j)
        else:
            raise ValueError(f"bad braid token {token!r}")
        if e < 0:
            seq = seq.inverse()
            e = -e
        for _ in range(e):
            letters.extend(seq.letters)
    return BraidWord(n, tuple(letters))


def parse_pure_word(text):
    """Parse `p(i,j)` / `p(i,j)^-1` tokens into PureLetter list."""
    letters = []
    for token in text.split():
        body, _, exp = token.partition("^")
        e = int(exp) if exp else 1
        if not (body.startswith("p(") and body.endswith(")")):
            raise NotPureWord(f"token {token!r} is not a pure generator")
        i, j = (int(x) for x in body[2:-1].split(","))
        sign = 1 if e > 0 else -1
        for _ in range(abs(e)):
            letters.append(PureLetter(i, j, sign))
    return letters
