"""Explicit trifferent code families: 1-bounded pairs, affine tripling, recursion."""

from __future__ import annotations

import math
from random import Random

from .core import Code, _require_trifferent

__all__ = [
    "one_bounded",
    "affine_plane",
    "triple_construction",
    "recursive_construction",
]

def one_bounded(n: int) -> Code:
    """Largest 1-bounded trifferent code: two words per coordinate, size 2n.

    u_i has its 2 at coordinate i, 1 on every later coordinate, 0 before;
    v_i mirrors it (1 before, 0 after).  Any triple contains two words u/v
    sharing some coordinate i or three distinct 2-coordinates i < j < k, and
    in both cases one coordinate sees 0, 1 and 2.  For n = 1 the two words
    coincide, so the code is the single word "2".
    """
    if n < 1:
        raise ValueError("n must be positive")
    words = set()
    for i in range(n):
        u = "".join("2" if j == i else ("1" if j > i else "0") for j in range(n))
        v = "".join("2" if j == i else ("1" if j < i else "0") for j in range(n))
        words.update((u, v))
    return Code.from_strings(
        words, n=n, comments=(f"# construction=one-bounded n={n}",)
    )


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def _derangement(items: list, rng: Random) -> list:
    # rejection sampling; expected ~e attempts
    while True:
        perm = items[:]
        rng.shuffle(perm)
        if all(a != b for a, b in zip(items, perm)):
            return perm


def affine_plane(q: int, sigma_seed: int | None = None) -> list[tuple[list[int], list[int]]]:
    """The q^2 + q lines of the affine plane AG(2, q) for prime q, numbered.

    Point (x, y) is q*x + y.  Line q*m + c is y = m*x + c, its points in
    order of x; line q*q + c is x = c, its points in order of y.  Each line
    is a pair (points, images): its fixed-point-free permutation sigma sends
    points[i] to images[i].  By default sigma is the cyclic shift by one;
    with sigma_seed set, a seeded random derangement per line.
    """
    if not _is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    lines = [[q * x + (m * x + c) % q for x in range(q)] for m in range(q) for c in range(q)]
    lines += [[q * c + y for y in range(q)] for c in range(q)]
    if sigma_seed is None:
        return [(pts, pts[1:] + pts[:1]) for pts in lines]
    rng = Random(sigma_seed)
    return [(pts, _derangement(pts, rng)) for pts in lines]


def triple_construction(
    q: int, base: Code | None = None, sigma_seed: int | None = None
) -> Code:
    """Blow an r-bounded trifferent code up to a 3r-bounded one of size q^3 + q^2.

    One output word per point-line flag (p, l) of the affine plane over F_q:
    the concatenation of s[p], s[l], and s[sigma_l(p)], where s lists the
    base codewords and points and lines are numbered as in affine_plane.
    Each of the three blocks resolves the triples whose flags collide in the
    other two, which is where the fixed-point-free sigma earns its keep.
    The base defaults to the 1-bounded family of exactly q^2 + q words.
    """
    plane = affine_plane(q, sigma_seed=sigma_seed)
    need = q * q + q
    if base is None:
        base = one_bounded(need // 2)
    if len(base) < need:
        raise ValueError(
            f"base code has {len(base)} codewords; q={q} needs at least {need}"
        )
    if base.r_bound is None:
        raise ValueError("base code must be exactly r-bounded")
    _require_trifferent(base, "base code")
    s = base.strings()
    words = [
        s[p] + s[line] + s[image]
        for line, (points, images) in enumerate(plane)
        for p, image in zip(points, images)
    ]
    sigma_note = "cyclic" if sigma_seed is None else f"random seed={sigma_seed}"
    comments = (
        f"# construction=triple q={q} sigma={sigma_note}",
        f"# base: n={base.n} size={len(base)} r={base.r_bound}",
    )
    # distinct flags give distinct words, which Code checks
    return Code.from_strings(words, n=3 * base.n, comments=comments)


def recursive_construction(t: int, target_size: int) -> Code:
    """A 3^t-bounded trifferent code with at least target_size codewords.

    Depth 0 is the 1-bounded pair family; each deeper level picks the
    smallest prime q with q^3 + q^2 >= target_size and triples a recursively
    built base of size q^2 + q.  Block length therefore grows by a factor of
    3 per level while the guaranteed size roughly cubes.
    """
    if t < 0:
        raise ValueError("recursion depth must be nonnegative")
    if target_size < 1:
        raise ValueError("target size must be positive")
    if t == 0:
        return one_bounded(max(1, math.ceil(target_size / 2)))
    q = 2
    while q**3 + q**2 < target_size:
        q += 1
        while not _is_prime(q):
            q += 1
    base = recursive_construction(t - 1, q * q + q)
    code = triple_construction(q, base)
    comments = code.comments + (
        f"# recursive: t={t} target={target_size} q={q}",
    )
    return Code(code.n, code.codewords, comments=comments)
