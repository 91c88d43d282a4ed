"""Pure-Python search kernels.

Reference implementations of the six kernels the package runs hot:
max_clique returns the clique number; min_hitting_set a minimum hitting
set, as a mask; lex_min_hitting_set the lexicographically smallest one,
rebuilt from any minimum one; canonical_bits the least upper-triangle bit
string over all relabelings; is_canonical whether given bits are that
string, with an early exit for orderly generation; induced_embedding the
first induced copy of a pattern, or None. The two hitting-set kernels share
one branch-and-bound, and the two labeling kernels share one search.
The least string opens with alpha zero columns (alpha the independence
number), so the search branches on which maximum independent set fills
those positions, one set per true-twin swap, and leaves the set's inner
order open until later vertices fix it. The compiled twin
(locdim._speedups) ports each of them to C with identical outputs;
locdim.kernels picks a backend at import time. Graphs arrive as adjacency
rows packed into ints, bit v of adj[u] set iff uv is an edge.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graphs import twin_masks

__all__ = [
    "max_clique",
    "min_hitting_set",
    "lex_min_hitting_set",
    "canonical_bits",
    "is_canonical",
    "induced_embedding",
]


def _clique_expand(adj: Sequence[int], size: int, cand: int, best: int) -> int:
    """Branch-and-bound clique search below the candidate mask.

    Returns max(best, size + largest clique inside cand). The bound comes
    from a greedy coloring of the candidates: a clique can take at most one
    vertex per color class.
    """
    if cand == 0:
        return size if size > best else best
    order = []
    bound = []
    color = 0
    rest = cand
    while rest:
        color += 1
        avail = rest
        while avail:
            v = (avail & -avail).bit_length() - 1
            order.append(v)
            bound.append(color)
            avail &= ~(adj[v] | (1 << v))
            rest &= ~(1 << v)
    for i in range(len(order) - 1, -1, -1):
        if size + bound[i] <= best:
            return best
        v = order[i]
        best = _clique_expand(adj, size + 1, cand & adj[v], best)
        cand &= ~(1 << v)
    return best


def max_clique(n: int, adj: Sequence[int]) -> int:
    """Exact clique number: the size of a largest clique, 0 when n <= 0."""
    if n > 62:
        raise ValueError(f"vertex count must be at most 62, got {n}")
    if n <= 0:
        return 0
    return _clique_expand(adj, 0, (1 << n) - 1, 0)


def _pack_bound(cons: list[int]) -> int:
    """Count pairwise-disjoint constraints greedily; a valid lower bound,
    since disjoint constraints need distinct hitters."""
    used = 0
    lb = 0
    for c in cons:
        if c & used == 0:
            used |= c
            lb += 1
    return lb


def _least(rem: list[int], allowed: int, picked: int, found: int, floor: int) -> int:
    """The branch-and-bound below one node, whose chosen elements are the
    mask picked: the smaller of found and picked plus a smallest hitting set
    of rem, except that the search stops as soon as found's size falls to
    floor or below. rem holds no empty constraint, lies within allowed (the
    elements not excluded above this node) and is in size order; the first
    hitting set found of size at most floor ends the search. A node with
    nothing left to hit returns picked, which is always the smaller: a
    child is built only while chosen + 3 < best. A sibling tried while
    chosen + 3 >= best is answered here, with one AND of the constraints
    it misses, instead of by a child (see min_hitting_set)."""
    if not rem:
        return picked
    chosen = picked.bit_count()
    best = found.bit_count()
    # only the root is entered with chosen + 2 >= best, and a greedy cover
    # of 2 means no one element hits every constraint (see min_hitting_set)
    if best <= floor or chosen + 2 >= best:
        return found
    if chosen + _pack_bound(rem) >= best:
        return found
    # every hitting set hits rem[0]; branch on its elements, lowest first
    branch = rem[0]
    while True:
        bit = branch & -branch
        if chosen + 3 < best:
            child = sorted([c & allowed for c in rem if not c & bit], key=int.bit_count)
            found = _least(child, allowed, picked | bit, found, floor)
            best = found.bit_count()
        else:
            # the child could improve on best only with at most one more
            # element, common to every constraint that bit misses
            common = allowed
            for c in rem:
                if not c & bit:
                    common &= c
                    if not common:
                        break
            if common & bit:
                # bit misses nothing, so the child would have nothing to hit
                found = picked | bit
                best = chosen + 1
            elif common and chosen + 3 == best:
                found = picked | bit | (common & -common)
                best = chosen + 2
        branch ^= bit
        if best <= floor or not branch:
            return found
        # the later siblings exclude this element; re-count the packing
        # bound on what rem keeps of allowed
        allowed ^= bit
        used = 0
        lb = chosen
        for c in rem:
            c &= allowed
            if not c & used:
                used |= c
                lb += 1
        if lb >= best:
            return found


def _system(universe: int, constraints: Sequence[int]) -> list[int]:
    """The distinct constraints in ascending order, after the range checks
    both hitting-set kernels share."""
    if not 0 <= universe <= 62:
        raise ValueError(f"universe size must be in 0..62, got {universe}")
    uniq = sorted({int(c) for c in constraints})
    if uniq:
        if uniq[0] < 0 or uniq[-1] >> 64:
            raise ValueError("masks must be ints in 0..2**64-1")
        if uniq[0] == 0:
            raise ValueError("unsatisfiable constraint system: empty constraint")
        if uniq[-1] >> universe:
            raise ValueError("constraint mentions an element outside the universe")
    return uniq


def min_hitting_set(
    universe: int, constraints: Sequence[int], lower_bound: int = 0
) -> int:
    """A minimum hitting set of bitmask constraints, as a mask; its
    popcount is the minimum size.

    Ground elements are bits 0..universe-1. `lower_bound` must be a valid
    bound for the instance; the search stops as soon as it is met, and
    returns the first hitting set found of at most that size. No solve
    passes one, so no reported floor is taken on trust; tests pin the
    results at every floor, since lex_min_hitting_set's probes stop the
    same search at their budgets. The mask lies within the union of the
    constraints, and is 0 when there are none.

    Only the inclusion-minimal constraints matter, since hitting a subset
    hits every superset. They are found by one pass in (size, value) order
    that keeps a constraint when no kept constraint is a subset of it: a
    proper subset is strictly smaller, so it comes first, and a subset of a
    dropped constraint is itself a superset of a kept one. The pass keeps a
    containment index, bit i of contain[v] set when kept constraint i holds
    v: a kept constraint is a subset of c exactly when it holds no element
    outside c, so c is kept when the index ORed over those elements covers
    every kept constraint. Elements in no constraint add nothing to the OR,
    and the OR stops once it covers everything.

    One branch-and-bound, _least, finds the value, carrying the chosen
    elements and the best set found as masks. It branches on the
    elements of the smallest remaining constraint, rem[0], in ascending
    order, with exclusion: once the subtree that takes v has been searched,
    every hitting set that contains v has been seen, so the later siblings
    may not use v. The exclusions are an element mask, allowed, passed down
    the recursion; no constraint is rewritten in place. Each child is built
    from the allowed parts of the constraints v misses, stably sorted by
    size, so a constraint cut down to one element comes first and gives a
    single forced branch (unit propagation). After each sibling, v leaves
    allowed and one pass re-counts the disjoint-packing bound on the
    allowed parts of the node's constraints. No constraint runs out of
    allowed elements before rem[0] does, since the excluded elements all
    lie in rem[0] and no constraint is smaller: so no child holds an empty
    constraint, and the siblings end with rem[0]'s last element. The
    siblings partition the hitting sets below the node, so no optimum is
    lost.

    A child whose chosen count is two below best can improve best only with
    one element that hits every constraint it holds, so its parent answers
    it without building it. For a sibling v tried while chosen + 3 >= best,
    the parent ANDs allowed with each of its own constraints that v misses,
    stopping once the AND is 0. When v misses none, the child would have
    nothing to hit, and picked | v is taken, one element more. Otherwise,
    while best is still chosen + 3, a non-zero AND gives picked | v and its
    lowest element. That is the set the child's own sibling loop would
    return: the AND lies within the child's rem[0], whose siblings run
    lowest first, so its lowest element is the first sibling with an empty
    child; the siblings before it fail at once and exclude only elements
    outside the AND, so the packing bound stays 1 up to it. Children are
    built only while chosen + 3 < best, so no node is entered with
    chosen + 2 >= best but the root. The root cannot improve on a greedy
    cover of 2 either: an element that hits every constraint hits the most
    of them, so the greedy cover would have taken it first and been 1.

    The search starts from the greedy cover (most hits first, ties to the
    smaller element) and stops at the floor: the larger of lower_bound and
    the packing bound, which is at least 1 on a non-empty system. It
    returns the greedy cover itself when no smaller hitting set is found.
    """
    uniq = _system(universe, constraints)
    if not uniq:
        return 0
    support = 0
    for c in uniq:
        support |= c
    cons: list[int] = []
    contain = [0] * universe
    kept = 0  # bit i set for every kept constraint i
    for c in sorted(uniq, key=int.bit_count):
        outside = 0
        rest = support & ~c
        while rest and outside != kept:
            low = rest & -rest
            outside |= contain[low.bit_length() - 1]
            rest ^= low
        if outside == kept:
            bit = kept + 1  # the next constraint's bit
            kept |= bit
            rest = c
            while rest:
                low = rest & -rest
                contain[low.bit_length() - 1] |= bit
                rest ^= low
            cons.append(c)
    floor = max(lower_bound, _pack_bound(cons))

    # greedy cover (most hits first, ties to the smaller element) for the
    # initial upper bound
    picks = 0
    alive = kept
    while alive:
        hits = [(x & alive).bit_count() for x in contain]
        pick = hits.index(max(hits))
        alive &= ~contain[pick]
        picks |= 1 << pick
    return _least(cons, support, 0, picks, floor)


def _probe(restricted: set[int], allowed: int, budget: int) -> int:
    """A hitting set of the non-empty system restricted, within allowed,
    with at most budget >= 1 elements; 0 when there is none.

    Budget 1 is one AND of the constraints, whose lowest element is taken:
    _least would return at once, since its root relies on a greedy cover to
    rule out a single hitter. A larger budget runs _least on the system in
    (size, value) order, from a stand-in of budget + 1 elements, so the
    search keeps a set only when it is within the budget and stops at the
    first such set.
    """
    if budget == 1:
        common = allowed
        for c in restricted:
            common &= c
            if not common:
                return 0
        return common & -common
    cons = sorted(sorted(restricted), key=int.bit_count)
    found = _least(cons, allowed, 0, (2 << budget) - 1, budget)
    return found if found.bit_count() <= budget else 0


def lex_min_hitting_set(universe: int, constraints: Sequence[int], found: int) -> int:
    """The lexicographically smallest minimum hitting set of the
    constraints, as a mask, given `found`, some minimum hitting set of them.
    Elements and checks are those of min_hitting_set; a found with an
    element outside the universe, or one that misses a constraint, raises
    ValueError.

    One ascending scan over the elements builds it. It keeps H, an optimum
    that contains the elements taken so far and has all its other elements
    after the candidate; `found` is the first H. Candidate v is taken when
    the constraints it leaves unhit, restricted to the elements after v,
    have a hitting set within the budget B, which starts at size - 1 and
    falls by one on each take:

    - When v is in H, H proves this without a search. H holds no untaken
      element below v, since the scan would have taken it. So H minus the
      taken elements and v lies after v, has exactly B elements and hits
      every constraint v misses: the probe below would accept v too.
    - An empty restricted system accepts v, and a spent budget with
      constraints left rejects it, without a search.
    - Otherwise v is probed (_probe): a search of the restricted system for
      a hitting set within B. When one is found, the taken elements, v and
      it form the next H.

    No restricted constraint is empty: while v is probed, H extends the
    taken elements with elements from v on, so each constraint v leaves
    unhit keeps an element after v.
    """
    rem = _system(universe, constraints)
    if found < 0 or found >> universe:
        raise ValueError("found must be a mask within the universe")
    if not all(c & found for c in rem):
        raise ValueError("found must hit every constraint")
    budget = found.bit_count() - 1
    witness = 0
    for v in range(universe):
        if not rem:
            break
        above = (1 << universe) - (2 << v)  # the elements after v
        restricted = {c & above for c in rem if not c >> v & 1}
        if not found >> v & 1 and restricted:
            if budget <= 0:
                continue
            rest = _probe(restricted, above, budget)
            if not rest:
                continue
            found = witness | 1 << v | rest
        witness |= 1 << v
        budget -= 1
        rem = restricted
    return witness


def _blocks(n: int, adj: Sequence[int], twins: Sequence[int]) -> list[int]:
    """The maximum independent sets of the graph, one per true-twin swap:
    those whose every member is the lowest vertex of its true-twin class.

    True twins (adjacent, with equal closed neighborhoods) are never both
    in an independent set, and swapping a member for its true twin is an
    automorphism that keeps the set independent, so each maximum
    independent set has exactly one such image. A false-twin class
    (non-adjacent, equal open neighborhoods) lies wholly inside or wholly
    outside a maximal independent set, since a member's false twin has no
    neighbor in it, so no choice is left to cut there. The sets are the
    maximal cliques of the complement on the lowest vertices of the classes,
    by Bron-Kerbosch with pivoting on bitmasks, keeping only the largest; a
    branch that cannot reach the largest size so far is cut. Since every
    maximum independent set has its image among those vertices, the
    largest found there are maximum in the whole graph.
    """
    lowest = 0
    for v in range(n):
        if not adj[v] & twins[v] & ((1 << v) - 1):
            lowest |= 1 << v
    # non[v]: v's non-neighbors among the lowest vertices, v excluded
    non = [lowest & ~adj[v] & ~(1 << v) for v in range(n)]
    found: list[int] = []
    largest = 0

    def expand(chosen: int, size: int, cand: int, done: int) -> None:
        nonlocal largest
        if not cand:
            if not done and size >= largest:
                if size > largest:
                    largest = size
                    found.clear()
                found.append(chosen)
            return
        # a maximal set holds the pivot, the lowest vertex of cand | done,
        # or one of its neighbors, so only those are branched on
        pivot = cand | done
        branch = cand & ~non[(pivot & -pivot).bit_length() - 1]
        while branch and size + cand.bit_count() >= largest:
            bit = branch & -branch
            v = bit.bit_length() - 1
            expand(chosen | bit, size + 1, cand & non[v], done & non[v])
            branch ^= bit
            cand ^= bit
            done |= bit

    expand(0, 0, lowest, 0)
    # expand refers to itself through its closure: unbound, the cycle goes
    # with the frame, not at the next collection
    del expand
    return found


def _least_string(n: int, adj: Sequence[int], own: int) -> int:
    """The search behind canonical_bits and is_canonical.

    With own < 0 it returns the least string. With a target own >= 0 (a
    string of some labeling of the graph) the prefix cut starts at own, so
    branches above own's prefix are never entered, and the search returns
    as soon as a prefix falls below own's prefix of the same length: every
    completion of that partial labeling is smaller than own. It then
    returns that prefix padded with zeros, a value below own; when no
    prefix falls below, it returns own. An own with a 1 in columns
    0..alpha-1 ends the search at the first prefix, which is below 2^alpha
    where own's is not. See canonical_bits for the search.
    """
    if n <= 1:
        return 0
    m = n * (n - 1) // 2
    # shifts[t]: the bits after the prefix of columns 0..t
    shifts = [m - t * (t + 1) // 2 for t in range(n)]
    twins = twin_masks(adj)
    blocks = _blocks(n, adj, twins)
    alpha = blocks[0].bit_count()
    if alpha == n:
        # no edges: every labeling gives 0
        return 0
    target = own >= 0
    order = sorted(range(n), key=lambda v: (adj[v].bit_count(), v))
    best = own

    # The prefix of columns 0..t is fixed; True ends a target search that
    # found a smaller string, False cuts the branch, None goes on.
    def settle(t: int, prefix: int) -> bool | None:
        nonlocal best
        if t == n - 1:
            if best < 0 or prefix < best:
                best = prefix
                return target
            return False
        if best >= 0:
            shift = shifts[t]
            bound = best >> shift
            if prefix > bound:
                return False
            if target and prefix < bound:
                best = prefix << shift
                return True
        return None

    # After the hand-off: the unplaced vertices grouped by adjacency column
    # against the placed ones (first placed vertex most significant), as
    # (column, mask) pairs in ascending column order; the first cell holds
    # the tied minimum. rec and defer return True when a target search has
    # found a smaller string.
    def rec(t: int, prefix: int, cells: list[tuple[int, int]]) -> bool:
        min_col, tied = cells[0]
        prefix = (prefix << t) | min_col
        done = settle(t, prefix)
        if done is not None:
            return done
        taken = 0
        for v in order:
            if not (tied >> v) & 1 or twins[v] & taken:
                continue
            taken |= 1 << v
            row = adj[v]
            off = ~(row | (1 << v))
            # placing v appends one bit to every column: each cell splits
            # into v's non-neighbors, then v's neighbors, keeping the order
            # (row has no bit v, so v leaves the cells with the first part)
            split = []
            for col, mask in cells:
                part = mask & off
                if part:
                    split.append((col << 1, part))
                part = mask & row
                if part:
                    split.append(((col << 1) | 1, part))
            if rec(t + 1, prefix, split):
                return True
        return False

    # Before the hand-off: positions 0..t-1 as ordered (mask, size) cells,
    # the block's vertices in cells whose inner order is still open and
    # each vertex placed after them alone in its own; rest holds the
    # unplaced vertices. An unplaced vertex's least column reads 0^a 1^b
    # over a cell, b its neighbors there.
    def defer(t: int, prefix: int, cells: list[tuple[int, int]], rest: int) -> bool:
        if len(cells) == t:
            # every cell is one vertex, so the order is fixed: key the
            # unplaced vertices by their whole column, one position at a
            # time, as rec's split does
            keyed = [(0, rest)]
            for mask, _ in cells:
                row = adj[mask.bit_length() - 1]
                split = []
                for col, part in keyed:
                    off = part & ~row
                    if off:
                        split.append((col << 1, off))
                    if off != part:
                        split.append(((col << 1) | 1, part & row))
                keyed = split
            return rec(t, prefix, keyed)
        min_col = -1
        tied = 0
        left = rest
        while left:
            bit = left & -left
            left ^= bit
            row = adj[bit.bit_length() - 1]
            col = 0
            for mask, size in cells:
                col = (col << size) | ((1 << (row & mask).bit_count()) - 1)
            if min_col < 0 or col < min_col:
                min_col = col
                tied = bit
            elif col == min_col:
                tied |= bit
        prefix = (prefix << t) | min_col
        done = settle(t, prefix)
        if done is not None:
            return done
        taken = 0
        for v in order:
            if not (tied >> v) & 1 or twins[v] & taken:
                continue
            taken |= 1 << v
            row = adj[v]
            # placing v writes its least column: every cell splits into v's
            # non-neighbors, then v's neighbors, and v follows alone
            split = []
            for mask, size in cells:
                part = mask & row
                if part and part != mask:
                    count = part.bit_count()
                    split.append((mask ^ part, size - count))
                    split.append((part, count))
                else:
                    split.append((mask, size))
            split.append((1 << v, 1))
            if defer(t + 1, prefix, split, rest ^ (1 << v)):
                return True
        return False

    everyone = (1 << n) - 1
    for block in blocks:
        if defer(alpha, 0, [(block, alpha)], everyone ^ block):
            break
    # rec and defer refer to each other through their closures (see _blocks)
    del rec, defer
    return best


def canonical_bits(n: int, adj: Sequence[int]) -> int:
    """Minimum upper-triangle bit string over all vertex relabelings.

    Bits are column-major (pairs (0,1), (0,2), (1,2), (0,3), ...) with the
    first pair most significant, matching the graph6 payload layout; column
    t holds the adjacency of position t to positions 0..t-1.

    Zero prefix: with alpha the independence number, the least string's
    columns 0..alpha-1 are all zero, whatever the order of the set placed
    there. A labeling whose first alpha vertices are not independent has a
    1 in those columns, where the least string has a 0 and every earlier
    bit equal, so it is larger. So the search branches on which maximum
    independent set S fills positions 0..alpha-1, not on the order of its
    vertices. These blocks come one per true-twin swap (see _blocks): a
    swap of true twins is an automorphism, and a false-twin class lies
    wholly inside or wholly outside S.

    Deferred order: S's order is kept as ordered cells whose inner order
    nothing fixes yet. The least column of an unplaced vertex z over a cell
    C is 0^a 1^b with b = |N(z) & C|, read off a popcount, so each position
    is filled with a smallest least column. Placing z splits every cell into
    its non-neighbors, then its neighbors: z's column is then fixed, and the
    columns already written do not change. Once every cell of S is one
    vertex, S's order is fixed and the search hands off to a plain DFS: the
    unplaced vertices are carried down the tree as an ordered partition into
    cells of equal column, and placing a vertex extends every cell's column
    by one bit, so no column is ever rebuilt. Ties between least columns are
    the only branching points, and prefixes that already exceed the best
    string are cut.

    Twin pruning: u and v are twins when adj[u] - {v} == adj[v] - {u} (true
    and false twins alike). Swapping two unplaced twins is an automorphism
    that fixes S and every placed vertex, so their subtrees yield the same
    strings and only one vertex per twin class is branched on at each node.
    Tied candidates are tried in ascending degree order (ties by index),
    which tends to reach a small string early and lets the prefix cut fire
    sooner. None of this alters the minimum of the strings reachable from
    the root, which is unique, so the result is the least string.
    """
    if n > 11:
        raise ValueError(f"canonical_bits supports n <= 11, got {n}")
    return _least_string(n, adj, -1)


def is_canonical(n: int, adj: Sequence[int], own: int) -> bool:
    """canonical_bits(n, adj) == own, for `own` the string of some labeling
    of the graph (its own triangle bits, say), by the same search with an
    early exit: the search stops at the first partial labeling whose prefix
    is below own's and never enters a branch whose prefix is above it. An
    own with a 1 in columns 0..alpha-1 is above the least string, whose
    columns there are all zero, and fails at the search's first prefix."""
    if n > 11:
        raise ValueError(f"is_canonical supports n <= 11, got {n}")
    return _least_string(n, adj, own) == own


def induced_embedding(
    host_n: int,
    host_adj: Sequence[int],
    pat_n: int,
    pat_adj: Sequence[int],
) -> tuple[int, ...] | None:
    """Search for an induced copy of the pattern inside the host.

    Pattern vertices are assigned in degree-descending order (ties by
    index); host candidates are tried ascending, among the host vertices of
    at least the pattern vertex's degree, so the first embedding found is
    deterministic. Every assigned pair must agree on adjacency and
    non-adjacency. Returns the mapping pattern vertex -> host vertex, or
    None.

    Forward checking (Haralick and Elliott, 1980): every unassigned pattern
    vertex carries a mask of the host vertices still consistent with the
    assigned ones. Assigning p -> h narrows each later q's mask to h's
    neighbors when pq is an edge, and to h's non-neighbors other than h
    when it is not, so a candidate read off the mask is unused and agrees
    with every assigned pair. A candidate that empties some later mask is
    skipped: its subtree holds no embedding. The candidates tried and their
    order are otherwise those of the plain backtracking, so the first
    embedding found is the same.
    """
    if host_n > 62:
        raise ValueError(f"vertex count must be at most 62, got {host_n}")
    if pat_n < 0:
        raise ValueError(f"pattern vertex count must be non-negative, got {pat_n}")
    if pat_n == 0:
        return ()
    if pat_n > host_n:
        return None
    pat_deg = [pat_adj[v].bit_count() for v in range(pat_n)]
    host_deg = [host_adj[v].bit_count() for v in range(host_n)]
    order = sorted(range(pat_n), key=lambda p: (-pat_deg[p], p))
    # links[i]: for each later position j, whether order[i] order[j] is an edge
    links = [
        [(pat_adj[order[i]] >> order[j]) & 1 for j in range(i + 1, pat_n)]
        for i in range(pat_n)
    ]
    assign = [-1] * pat_n

    # masks: the candidate mask of every position from pos on
    def rec(pos: int, masks: list[int]) -> bool:
        if pos == pat_n:
            return True
        cand = masks[0]
        later = masks[1:]
        link = links[pos]
        while cand:
            low = cand & -cand
            cand ^= low
            h = low.bit_length() - 1
            row = host_adj[h]
            off = ~row & ~low
            narrowed = []
            for mask, edge in zip(later, link):
                mask &= row if edge else off
                if not mask:
                    break
                narrowed.append(mask)
            else:
                if rec(pos + 1, narrowed):
                    assign[order[pos]] = h
                    return True
        return False

    start = [
        sum(1 << h for h in range(host_n) if host_deg[h] >= pat_deg[p]) for p in order
    ]
    found = rec(0, start)
    # rec refers to itself through its closure (see _blocks)
    del rec
    return tuple(assign) if found else None
