"""The unpruned induced-subgraph profile enumerator, as it was before
`fractional.induced_subgraph_profiles` learned to skip subsets, kept as its
oracle: every count vector of every left subset is keyed, by sorting its
subset codes under every left permutation and taking the least list, and
deduplicated row by row."""

import itertools
import math
from collections import Counter

import numpy as np

from sidlab.bigraph import GraphTooLargeError
from sidlab.fractional import PROFILE_CLASS_CAP

_PROFILE_CHUNK = 1 << 16


def unpruned_profiles(g) -> list[dict[frozenset, int]]:
    """Right-neighborhood profiles of all induced subgraphs, deduplicated.

    A profile maps each nonempty left subset S to the number of right
    vertices of the induced subgraph whose neighborhood is exactly S.
    Profiles are deduplicated up to relabeling of the left side, which
    identifies exactly the induced subgraphs with isomorphic edge
    structure (isolated vertices do not affect any density).

    Profiles are enumerated per left subset, counts in product order. Each
    is coded as the sorted list of its (subset rank, count) pairs, where
    subsets are ranked by their sorted tuples of vertex names; its class key
    is the least such list over all left permutations, so the first profile
    seen of each class represents it. Classes are ordered by their keys,
    which is the order of the least relabeled, sorted (subset, count) list
    of their representatives.
    """
    left = g.left
    if len(left) > 8:
        raise GraphTooLargeError("profile enumeration capped at 8 left vertices")
    traces_full = [frozenset(g.neighbors(w)) for w in g.right]
    work = []
    total = 0
    for r in range(len(left) + 1):
        for a in itertools.combinations(left, r):
            aset = frozenset(a)
            types = Counter(t & aset for t in traces_full)
            types.pop(frozenset(), None)
            items = sorted(types.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
            total += math.prod(c + 1 for _, c in items)
            if total > PROFILE_CLASS_CAP:
                raise GraphTooLargeError("too many induced subgraph classes")
            work.append(items)

    # subset-image table, uint8 under the 8-vertex cap: images[m, p] is the
    # mask of left subset m under permutation p
    n = len(left)
    bit = {v: 1 << i for i, v in enumerate(left)}
    perm_index = np.array(list(itertools.permutations(range(n))),
                          dtype=np.uint8).reshape(math.factorial(n), n)
    masks = np.arange(1 << n, dtype=np.uint8)
    images = (((masks[:, None] >> np.arange(n, dtype=np.uint8)) & 1)
              @ (np.uint8(1) << perm_index.T))
    # rank[m] orders subsets by their sorted name tuples; g.left is sorted
    order = sorted(range(1 << n), key=lambda m: [left[i] for i in range(n) if m >> i & 1])
    rank = np.empty(1 << n, dtype=np.int64)
    rank[order] = np.arange(1 << n)
    # subset m held by c > 0 right vertices has code rank[m] * (most + 1) + c,
    # which orders (subset, count) pairs as their name tuples do; an absent
    # subset has code 0, so zeros lead a sorted list of codes
    most = max((c for items in work for _, c in items), default=0)
    width = max(map(len, work))
    dtype = np.min_scalar_type((most + 1) << n)
    top = np.iinfo(dtype).max
    chunk = max(1, _PROFILE_CHUNK // (len(perm_index) * max(width, 1)))

    seen: dict[bytes, tuple[list[int], dict[frozenset, int]]] = {}
    for items in work:
        codes = rank[images[[sum(bit[v] for v in s) for s, _ in items]].T].astype(dtype)
        codes *= most + 1
        radices = [c + 1 for _, c in items]
        count = math.prod(radices)
        for start in range(0, count, chunk):
            index = np.arange(start, min(start + chunk, count))
            counts = np.empty((len(index), len(items)), dtype=dtype)
            for k in reversed(range(len(items))):
                index, counts[:, k] = np.divmod(index, radices[k])
            permuted = np.where(counts[:, None, :] > 0, codes + counts[:, None, :], 0)
            permuted.sort(axis=2)
            # the key is the least sorted code list over all permutations
            keys = np.zeros((len(counts), width), dtype=dtype)
            alive = np.ones(permuted.shape[:2], dtype=bool)
            for k in range(len(items)):
                vals = np.where(alive, permuted[:, :, k], top)
                keys[:, width - len(items) + k] = low = vals.min(axis=1)
                alive &= vals == low[:, None]
            for row, key in zip(counts, keys):
                code = key.tobytes()
                if code not in seen:
                    seen[code] = ([c for c in key.tolist() if c],
                                  {s: int(c) for (s, _), c in zip(items, row) if c})

    return [profile for _, profile in sorted(seen.values(), key=lambda kp: kp[0])]
