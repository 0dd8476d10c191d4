"""Digraph plumbing on successor bitmasks: topological order, SCC and
reachability."""

from itertools import compress

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def bits(mask):
    """Yield the set bit positions of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def select(seq, mask):
    """Iterate the items of seq at the set bit positions of mask, ascending.

    The selectors are the binary digits of mask, reversed and read as 0/1
    bytes, so the scan runs in C: cheaper than :func:`bits` once a mask has
    more than a few bits set, dearer on a wide mask with one or two.
    """
    return compress(seq, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))


def mask_of(indices):
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def transpose_masks(rows):
    out = [0] * len(rows)
    bit = 1
    for row in rows:
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
        bit <<= 1
    return out


def topo_order(adj):
    """Every vertex after all vertices it reaches, or None on a cycle.

    An iterative depth-first search with three states per vertex (new, on
    the current path, finished) lists vertices as they finish; an edge into
    a vertex still on the path is a back edge and closes a cycle, so the
    search stops there.  Edges into vertices finished before a vertex is
    entered are masked off its row at once.  ``adj`` must hold no
    self-loops.
    """
    state = bytearray(len(adj))  # 0 new, 1 on the current path, 2 finished
    done = 0
    order = []
    stack = []
    for root in range(len(adj)):
        if state[root]:
            continue
        state[root] = 1
        v, rest = root, adj[root] & ~done
        while True:
            if rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                seen = state[w]
                if not seen:
                    state[w] = 1
                    stack.append((v, rest))
                    v, rest = w, adj[w] & ~done
                elif seen == 1:
                    return None
            else:
                state[v] = 2
                done |= 1 << v
                order.append(v)
                if not stack:
                    break
                v, rest = stack.pop()
    return order


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


def dag_reach(adj, order, rows=None):
    """Reflexive-transitive reachability rows of an acyclic digraph.

    ``order`` must list every vertex after all vertices it reaches, as
    :func:`topo_order` returns it.  Given ``rows``, each vertex gets the
    union of ``rows`` over all vertices it reaches instead.  A self-loop
    needs no masking: it only adds the vertex's own starting row again.
    """
    reach = [1 << v for v in range(len(adj))] if rows is None else list(rows)
    for v in order:
        r = reach[v]
        rest = adj[v]
        while rest:
            low = rest & -rest
            r |= reach[low.bit_length() - 1]
            rest ^= low
        reach[v] = r
    return reach

