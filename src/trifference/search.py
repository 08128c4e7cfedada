"""Exact maximum trifferent code search with an independent exhaustive oracle.

The branch-and-bound engine walks candidate codewords in lexicographic order,
keeps the incumbent, and prunes subtrees that cannot beat it, so the returned
optimum is the lexicographically smallest one.  Candidate pools are Python
big-int bitsets, and so are the pair masks that shrink them: each is an OR of
per-coordinate symbol planes.  A bound rule is the rooms list the search
starts from, the room left in each set of words that caps the code: the
support rule starts with room 2 in each exact 2-location set, counted per
set by popcount where the pool's size alone does not prune, and the size
rule with none.  A new rule is a new list.  The oracle re-solves small
instances as a plain maximum independent set in the bad-triple hypergraph
and shares no code path with the engine.

max_trifferent and max_r_bounded check only their own arguments, then both
reach the certificate through _solve, in this order: the budget and bound
rule, the size guard (no universe larger than {0,1,2}^cap), the config that
is hashed, the oracle cap, one universe build that the oracle reuses, the
engine (skipped for the layers r = 0 and r = n, whose answer is known),
core.verify_trifferent on every triple of the best code, and the
certificate.

The engine may run in several processes (_branch_and_bound): once the tree
has shown itself large, it forks, and the subtrees rooted at three chosen
words are dealt round-robin to the processes, as the verifier deals rows.
A search on one CPU walks the same tree top and never forks.  The parent
takes a child's result for a subtree only when its incumbent at that
subtree's place in the depth-first order is the one the child had at the
fork.  A subtree's run depends only on its arguments (its prefix, its pool
and the room left in each 2-location set), that incumbent and the budget
left, so nodes, codes and certificates are those of one process, whatever
the process count.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import marshal
import os
from typing import NamedTuple

from .core import (
    Code,
    Codeword,
    NotTrifferentError,
    OracleDisagreementError,
    _fork,
    _stop,
    _trifferent_strings,
    _usable_cpus,
    count_A_r,
    format_triff,
    verify_trifferent,
)

__all__ = [
    "SearchCertificate",
    "OracleDisagreementError",
    "BadTripleOracleInstance",
    "full_universe",
    "a_r_universe",
    "enumerate_bad_triples",
    "oracle_max",
    "max_trifferent",
    "max_r_bounded",
    "certificate_to_json",
    "load_results_table",
    "save_results_table",
    "record_certificate",
]

OPTIMAL = "optimal"
LOWER_BOUND = "lower-bound"

DEFAULT_CAP = 6
DEFAULT_ORACLE_CAP = 81


def full_universe(n: int) -> list[Codeword]:
    """All 3^n words of length n in lexicographic order."""
    if n < 1:
        raise ValueError("n must be positive")
    return [
        Codeword.from_string("".join(t))
        for t in itertools.product("012", repeat=n)
    ]


def a_r_universe(n: int, r: int) -> list[Codeword]:
    """All words with exactly r twos, lexicographically ordered."""
    if not 0 <= r <= n:
        raise ValueError(f"r must lie in [0, {n}], got {r}")

    def layer(k: int, t: int) -> list[str]:
        # a leading 0 or 1 leaves t twos for the tail, a leading 2 leaves t - 1
        if not 0 <= t <= k:
            return []
        if k == 0:
            return [""]
        tails = layer(k - 1, t)
        return [h + x for h in "01" for x in tails] + ["2" + x for x in layer(k - 1, t - 1)]

    return [Codeword.from_string(s) for s in layer(n, r)]


class BadTripleOracleInstance(NamedTuple):
    """A candidate universe plus the set of its non-trifferent index triples."""

    universe: tuple[Codeword, ...]
    bad_triples: frozenset

    @property
    def bad_count(self) -> int:
        return len(self.bad_triples)


def enumerate_bad_triples(universe) -> BadTripleOracleInstance:
    """The universe and its non-trifferent index triples (i < j < k).

    The words are checked once for the whole universe (distinct, and of one
    length wherever they form a triple), so each triple is tested on its
    strings alone.
    """
    words = tuple(universe)
    strings = [w.string for w in words]
    if len(set(strings)) != len(words):
        raise ValueError("universe must be duplicate-free")
    if len(words) > 2 and len({w.n for w in words}) > 1:
        raise ValueError("codewords in a triple must share one length")
    bad = frozenset(
        (i, j, k)
        for i, j, k in itertools.combinations(range(len(words)), 3)
        if not _trifferent_strings(strings[i], strings[j], strings[k])
    )
    return BadTripleOracleInstance(universe=words, bad_triples=bad)


def _check_oracle_cap(size: int, cap: int) -> None:
    if size > cap:
        # a size too long to read on one line is shown as a power of two
        shown = size if size < 2**64 else f"at least 2^{size.bit_length() - 1}"
        raise ValueError(f"oracle universe size {shown} exceeds cap {cap}")


def oracle_max(instance: BadTripleOracleInstance, cap: int = DEFAULT_ORACLE_CAP) -> int:
    """Maximum independent set size in the bad-triple hypergraph, by full recursion.

    No symmetry breaking and no shared state with the search engine: words
    are added in increasing order, and closes[a][b] (a < b) marks the later
    words c that make (a, b, c) a bad triple.  A subset carries avail, the
    later words that no chosen pair bans, and its branch stops once the
    subset plus all of avail cannot beat the best found, the weakest sound
    bound, since every extension takes its words from avail.  Every other
    triple-free subset is visited.  Only usable on small universes.
    """
    m = len(instance.universe)
    _check_oracle_cap(m, cap)
    closes = [[0] * m for _ in range(m)]
    for triple in instance.bad_triples:
        a, b, c = sorted(triple)
        closes[a][b] |= 1 << c
    best = 0

    def extend(chosen: list[int], avail: int) -> None:
        nonlocal best
        if len(chosen) > best:
            best = len(chosen)
        while len(chosen) + avail.bit_count() > best:
            lsb = avail & -avail
            c = lsb.bit_length() - 1
            avail ^= lsb
            banned = 0
            for a in chosen:
                banned |= closes[a][c]
            chosen.append(c)
            extend(chosen, avail & ~banned)
            chosen.pop()

    extend([], (1 << m) - 1)
    return best


class SearchCertificate(NamedTuple):
    """Outcome of one exact search run.

    status is "optimal" when the tree was exhausted, "lower-bound" when the
    node budget ran out first.  best_code is the lexicographically smallest
    optimum for completed runs.
    """

    n: int
    r: int | None
    best_size: int
    best_code: Code
    status: str
    nodes_explored: int
    oracle_checked: bool
    config_hash: str


def _config_hash(config: dict) -> str:
    import hashlib  # costs every CLI start ~5 ms, so import on use

    blob = json.dumps(config, sort_keys=True).encode("ascii")
    return hashlib.sha256(blob).hexdigest()[:16]


def _pair_compat_masks(universe: list[Codeword]) -> list[list[int]]:
    """compat[i][j] = bitmask of w such that the triple (i, j, w) is trifferent.

    planes[c][s] marks the words holding s at coordinate c.  When i holds a
    and j holds b != a at c, the words completing (i, j) there hold 3 - a - b,
    so for word i, tables[c][b] is that plane (0 when b = a) and compat[i][j]
    ORs j's entries over the coordinates.  Neither i nor j ever holds the
    third symbol, so bits i and j stay clear (a triple needs distinct words).
    """
    m, n = len(universe), universe[0].n
    symbols = [tuple(map(int, w.string)) for w in universe]
    planes = [[0, 0, 0] for _ in range(n)]
    for idx, word in enumerate(symbols):
        for c, s in enumerate(word):
            planes[c][s] |= 1 << idx
    compat: list[list[int]] = [[0] * m for _ in range(m)]
    for i in range(m - 1):
        tables = [
            [plane[3 - a - b] if b != a else 0 for b in range(3)]
            for a, plane in zip(symbols[i], planes)
        ]
        for j in range(i + 1, m):
            mask = 0
            for table, b in zip(tables, symbols[j]):
                mask |= table[b]
            compat[i][j] = compat[j][i] = mask
    return compat


# A search forks only once the subtrees it has searched add up to this much
# work, each its node count times the size of its root's pool, a bound on
# the candidates its nodes examine.  The whole n = 4 tree adds up to 63.8k
# and the (5, 2) layer to 79.9k, so they never fork.  The (6, 1) layer
# (376k in all) and the T(5) tree (12.5M in its first 200,000 nodes) reach
# it 2,000 to 3,000 nodes in, a few tens of ms on a 2-vCPU Xeon, against
# the 2 ms it takes to fork a child, read its first result and reap it.
_MIN_FORK_WORK = 120_000
# Subtrees are dealt at the nodes with this many chosen words: with the pin,
# the pin and two more.
_DEAL_DEPTH = 3


def _branch_and_bound(
    universe: list[Codeword],
    symmetry: bool,
    bound: str,
    budget: int | None,
):
    """Returns (best_size, best_indices, nodes, completed).

    A node is searched from its chosen words, its pool and its rooms, the
    room left in each 2-location set that the pool still meets; the bound
    rule is the rooms the root starts from, none under the size rule, where
    a node prunes by its pool's size alone.  The walk has one shape at any
    CPU count: the nodes above depth _DEAL_DEPTH hand their children to
    deal, which searches each subtree itself until those searched add up
    to _MIN_FORK_WORK.  With k > 1 CPUs that this process may
    run on (_usable_cpus), it then forks k - 1 children, and each process
    goes on with the same depth-first walk; with one it never forks.  Counted
    from the fork, subtree i belongs to process i mod k.  A child searches
    its subtrees under the incumbent it had at the fork, and for each one
    sends its node count and its improvements, each as (node offset, chosen
    words), down a pipe that only the parent reads.  The parent searches its
    own subtrees and reads the children's in depth-first order.

    Why the answer and the node count are those of one process: a subtree's
    run depends only on its arguments (prefix, pool and rooms), the
    incumbent's size when it starts and the budget left.  The parent uses a
    child's result only when its own incumbent, at that subtree's place in
    the depth-first order, still has the size it had at the fork.  The walk
    of the tree's top depends on nothing but that size, so both processes
    have then met the same subtrees, and the result is what the parent would
    have found itself.  A budget that runs out inside the subtree keeps the
    improvements made up to the budget and counts budget + 1 nodes, as one
    process does.  A child counts only the nodes it walks, never more than
    the parent has walked by the same point, so a child whose budget runs
    out has searched at least as far as the parent's cut.  When the incumbent
    has grown since the fork, the parent kills its children, searches that
    subtree itself and forks again at the next one.  When a child has died,
    the parent kills the others and searches the rest alone.
    """
    m = len(universe)
    compat = _pair_compat_masks(universe)
    # every exact 2-location set admits at most 2 codewords in total;
    # support_of[w] has a bit per word of w's set, and a node's rooms list
    # (room left, set) for each set that its pool still meets
    keys = [w.two_locations() for w in universe]
    sets = dict.fromkeys(keys, 0)
    for idx, key in enumerate(keys):
        sets[key] |= 1 << idx
    support_of = [sets[key] for key in keys]
    rooms = [(2, S) for S in sets.values()] if bound == "support" else []
    rows: list[list[int]] = []  # compat rows of the chosen words

    best_size = 0
    grown: list[tuple[int, list[int]]] = []  # (node, chosen) at each improvement
    nodes = 0
    exhausted = False

    procs = _usable_cpus()
    work = 0  # the searched subtrees' work, counted until the first fork
    me = 0  # 0 in the parent, p in child p
    fork_size = None  # the incumbent's size at the fork, None while unforked
    dealt = 0  # subtrees met since the fork
    children: list[tuple[int, object]] = []  # the parent's (pid, pipe) per child
    to_parent = None  # a child's pipe

    def rec(chosen: list[int], pool: int, rooms: list[tuple[int, int]]) -> None:
        """The search of a node, which hands each child to deal at depth _DEAL_DEPTH."""
        nonlocal best_size, nodes, exhausted
        nodes += 1
        if budget is not None and nodes > budget:
            exhausted = True
            return
        depth = len(chosen)
        if depth > best_size:
            best_size = depth
            grown.append((nodes, chosen.copy()))
        child = deal if depth + 1 == _DEAL_DEPTH else rec
        rem = pool
        while rem and depth + rem.bit_count() > best_size:
            lsb = rem & -rem
            c = lsb.bit_length() - 1
            rem ^= lsb
            new_pool = rem
            for row in rows:
                new_pool &= row[c]
                if not new_pool:
                    break
            slack = new_pool.bit_count()
            if rooms and depth + 1 + slack > best_size:
                # the per-set slack is at most the pool's size, so it is
                # counted only when the size alone does not prune
                slack = 0
                for room, S in rooms:
                    k = (new_pool & S).bit_count()
                    slack += k if k < room else room
            if depth + 1 + slack > best_size:
                kept = rooms
                if rooms:  # c takes one room of its own set
                    s = support_of[c]
                    kept = [(room - (S == s), S) for room, S in rooms if new_pool & S]
                chosen.append(c)
                rows.append(compat[c])
                child(chosen, new_pool, kept)
                rows.pop()
                chosen.pop()
            if exhausted:
                return

    def deal(chosen: list[int], pool: int, rooms: list[tuple[int, int]]) -> None:
        """Search, skip, or take from a child the subtree rooted at chosen."""
        nonlocal best_size, nodes, exhausted, work, fork_size, dealt, procs, me, to_parent, children
        if fork_size is None and procs > 1 and work >= _MIN_FORK_WORK:
            me, to_parent, children = _fork(procs)
            if me or children:
                fork_size, dealt = best_size, 0
            else:  # without the means to fork, search in one process
                procs = 1
        if fork_size is None:
            base = nodes
            rec(chosen, pool, rooms)
            work += (nodes - base) * pool.bit_count()
            return
        owner = dealt % procs
        dealt += 1
        if me:
            if owner == me:
                base, first = nodes, len(grown)
                rec(chosen, pool, rooms)
                found = [(at - base, words) for at, words in grown[first:]]
                to_parent.write(marshal.dumps((nodes - base, found)))
                to_parent.flush()
                del grown[first:]
                best_size = fork_size
            return
        if owner:
            if best_size == fork_size:
                try:
                    count, found = marshal.load(children[owner - 1][1])
                except (EOFError, ValueError):  # the child died: go on alone
                    procs = 1
                else:
                    base = nodes
                    for at, words in found:
                        if budget is not None and base + at > budget:
                            break
                        best_size = len(words)
                        grown.append((base + at, words))
                    nodes = base + count
                    if budget is not None and nodes > budget:
                        nodes, exhausted = budget + 1, True
                    return
            _stop(children)
            fork_size = None
        rec(chosen, pool, rooms)

    chosen, pool = [], (1 << m) - 1
    if symmetry:
        chosen, pool = [0], pool & ~1
        rows.append(compat[0])
        rooms = [(room - (S == support_of[0]), S) for room, S in rooms if pool & S]
    try:
        rec(chosen, pool, rooms)
    finally:
        if me:  # a child never returns to the caller
            os._exit(0)
        _stop(children)
    best = grown[-1][1] if grown else []
    return best_size, best, nodes, not exhausted


def _solve(
    base: dict,
    budget: int | None,
    symmetry: bool,
    bound: str,
    oracle_check: bool,
    oracle_cap: int,
    cap: int,
) -> SearchCertificate:
    """Certificate of the largest code over {0,1,2}^n, or its layer r.

    base holds kind, n, and r for a layer.  The engine takes on no universe
    larger than {0,1,2}^cap, and builds it only when the tree is searched;
    the oracle reuses it.  No certificate carries a code that failed the
    triple check, whatever the pair masks said.  The engine's process count
    changes how fast it runs, never its result, so it stays out of the config.
    """
    if budget is not None and budget < 1:
        raise ValueError(f"budget must be a positive node count, got {budget}")
    if bound not in ("size", "support"):
        raise ValueError(f"unknown bound rule {bound!r}")
    n, r = base["n"], base.get("r")
    # a universe of length n has at most 3^n words, so 3^cap is computed
    # only when n > cap, and 3^n only once n is within the cap
    if r not in (0, n) and n > cap and (r is None or count_A_r(n, r) > 3**cap):
        raise ValueError(
            f"the universe has more words than {{0,1,2}}^{cap}; "
            "pass a larger cap explicitly"
        )
    size = 3**n if r is None else count_A_r(n, r)
    config = {
        **base,
        "budget": budget,
        "symmetry": symmetry,
        "bound": bound,
        "oracle": oracle_check,
        # a size past the 4300 digits that Python writes in decimal by
        # default goes in hex; every smaller one keeps its decimal hash
        "universe": size if size < 10**4300 else hex(size),
    }
    if oracle_check:
        _check_oracle_cap(size, oracle_cap)
    if r in (0, n):
        # binary words never give a coordinate all three symbols, so any two
        # distinct words are optimal; r = n leaves only the all-twos word
        words = ("0" * n, "0" * (n - 1) + "1") if r == 0 else ("2" * n,)
        code, nodes, completed = Code.from_strings(words, n), 0, True
        universe = a_r_universe(n, r) if oracle_check else None
    else:
        universe = full_universe(n) if r is None else a_r_universe(n, r)
        _, best, nodes, completed = _branch_and_bound(universe, symmetry, bound, budget)
        code = Code(n, tuple(universe[i] for i in best))
    check = verify_trifferent(code)
    if not check.ok:
        x, y, z = (code.codewords[i] for i in check.witness)
        raise NotTrifferentError(f"search result is not trifferent: {x}, {y}, {z}")
    if oracle_check:
        oracle_size = oracle_max(enumerate_bad_triples(universe), cap=oracle_cap)
        if completed and oracle_size != len(code):
            raise OracleDisagreementError(
                f"oracle disagrees with search: {oracle_size} vs {len(code)}"
            )
        if not completed and len(code) > oracle_size:
            raise OracleDisagreementError("budgeted search exceeded the oracle optimum")
    return SearchCertificate(
        n=n,
        r=r,
        best_size=len(code),
        best_code=code,
        status=OPTIMAL if completed else LOWER_BOUND,
        nodes_explored=nodes,
        oracle_checked=oracle_check,
        config_hash=_config_hash(config),
    )


def max_trifferent(
    n: int,
    budget: int | None = None,
    cap: int = DEFAULT_CAP,
    symmetry: bool = True,
    bound: str = "size",
    oracle_check: bool = False,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SearchCertificate:
    """Exact maximum trifferent code over all of {0,1,2}^n, for n <= cap.

    With symmetry on, the first codeword is pinned to the all-zeros word:
    per-coordinate symbol permutations act transitively on words and preserve
    trifference, and the all-zeros word is the lexicographic minimum, so the
    lexicographically smallest optimum survives the restriction.
    A large search runs in one process per usable CPU; the certificate is
    the same for any count.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _solve(
        {"kind": "max", "n": n}, budget, symmetry, bound, oracle_check, oracle_cap, cap
    )


def max_r_bounded(
    n: int,
    r: int,
    budget: int | None = None,
    cap: int = DEFAULT_CAP,
    symmetry: bool = True,
    bound: str = "support",
    oracle_check: bool = False,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
) -> SearchCertificate:
    """Exact maximum trifferent code among words with exactly r twos.

    r = 0 leaves a binary universe where no triple is ever trifferent, so the
    answer is 2 immediately; r = n leaves the single all-twos word.  Both
    answer at any n; any other layer is searched only if it has at most
    3^cap words.  The symmetry pin is the lexicographic minimum of the layer,
    justified by coordinate permutations combined with 0/1 swaps.
    A large search runs in one process per usable CPU; the certificate is
    the same for any count.
    """
    return _solve(
        {"kind": "max-r", "n": n, "r": r}, budget, symmetry, bound, oracle_check, oracle_cap, cap
    )


def certificate_to_json(cert: SearchCertificate) -> dict:
    return {
        "schema": 1,
        "n": cert.n,
        "r": cert.r,
        "best_size": cert.best_size,
        "status": cert.status,
        "nodes_explored": cert.nodes_explored,
        "oracle_checked": cert.oracle_checked,
        "config_hash": cert.config_hash,
        "best_code_triff": format_triff(cert.best_code),
    }


# ---------------------------------------------------------------------------
# Results table: exact sizes accumulated across runs, consumed by bounds.
# Keys are (n, r) with r None for the unrestricted maximum.
# ---------------------------------------------------------------------------


def _is_int(value) -> bool:
    return type(value) is int  # JSON true/false load as bool, an int subclass


def load_results_table(path) -> dict:
    """Read a table written by save_results_table; ValueError on a bad entry.

    A size that no code of its (n, r) can have, above the universe's size or
    below min(2, that size), is a bad entry.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or data.get("schema") != 1:
        raise ValueError("unsupported results table schema")
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError("results table needs a list of entries")
    table = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"results table entry {k} is not an object")
        missing = {"n", "r", "size"} - entry.keys()
        if missing:
            raise ValueError(f"results table entry {k} lacks {', '.join(sorted(missing))}")
        n, r, size = entry["n"], entry["r"], entry["size"]
        if not (_is_int(n) and n >= 1):
            raise ValueError(f"results table entry {k}: n must be an integer >= 1")
        if not (r is None or (_is_int(r) and 0 <= r <= n)):
            raise ValueError(
                f"results table entry {k}: r must be null or an integer in [0, {n}]"
            )
        if not (_is_int(size) and size >= 0):
            raise ValueError(f"results table entry {k}: size must be an integer >= 0")
        # the optimum lies between min(2, universe) and the universe's size;
        # a universe holds at least 2**free words, so only one with no more
        # free coordinates than size has bits can be smaller than size
        free = n if r is None else n - r
        universe = float("inf")
        if free <= size.bit_length():
            universe = 3**n if r is None else count_A_r(n, r)
        if not min(2, universe) <= size <= universe:
            raise ValueError(
                f"results table entry {k}: no largest code of n={n}, r={r} has size {size}"
            )
        if (n, r) in table:
            raise ValueError(f"results table entry {k}: duplicate key n={n}, r={r}")
        table[(n, r)] = size
    return table


def save_results_table(path, table: dict) -> None:
    """Write the table to a temporary file beside path, then rename it over path.

    A reader never sees a half-written table, even if this process dies.
    """
    entries = [
        {"n": n, "r": r, "size": size, "status": OPTIMAL}
        for (n, r), size in sorted(
            table.items(), key=lambda kv: (kv[0][0], -1 if kv[0][1] is None else kv[0][1])
        )
    ]
    payload = {"schema": 1, "entries": entries}
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def record_certificate(table: dict, cert: SearchCertificate) -> None:
    """Insert an optimal certificate into the table; budgeted runs are skipped."""
    if cert.status != OPTIMAL:
        return
    key = (cert.n, cert.r)
    if key in table and table[key] != cert.best_size:
        raise ValueError(
            f"conflicting exact value for {key}: {table[key]} vs {cert.best_size}"
        )
    table[key] = cert.best_size
