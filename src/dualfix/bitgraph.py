"""Digraph plumbing on successor bitmasks: SCC and reachability."""


def bits(mask):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def transpose_masks(rows):
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        for j in bits(row):
            out[j] |= 1 << i
    return out


def tarjan_scc(adj):
    """Strongly connected components of a successor-mask digraph.

    Components come out in reverse topological order: every edge leaving a
    component points into one that appears earlier in the result.
    """
    n = len(adj)
    num = [-1] * n
    low = [0] * n
    onstack = [False] * n
    stack = []
    comps = []
    counter = 0
    for root in range(n):
        if num[root] >= 0:
            continue
        num[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack[root] = True
        work = [[root, adj[root]]]
        while work:
            top = work[-1]
            v, rest = top
            if rest:
                b = rest & -rest
                top[1] = rest ^ b
                w = b.bit_length() - 1
                if num[w] < 0:
                    num[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    onstack[w] = True
                    work.append([w, adj[w]])
                elif onstack[w] and num[w] < low[v]:
                    low[v] = num[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == num[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        onstack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def dag_reach(adj, order):
    """Reflexive-transitive reachability rows of an acyclic digraph.

    ``order`` must list every vertex after all vertices it reaches (e.g. the
    singleton components from tarjan_scc, flattened).
    """
    reach = [0] * len(adj)
    for v in order:
        r = 1 << v
        for w in bits(adj[v] & ~(1 << v)):
            r |= reach[w]
        reach[v] = r
    return reach

