"""Output checks written independently of bipack's own verifiers.

Each check returns an error message, or None when the output is correct.
Graphs here are plain (m, n, edge list) data read straight from the text
format, so a fault in bipack's parser or verifier cannot hide a bad answer.
"""

from __future__ import annotations


def read_graph(text):
    """(m, n, edges) from the text format: 'm n' then one 'a b' per edge."""
    values = list(map(int, text.split()))
    m, n = values[0], values[1]
    return m, n, list(zip(values[2::2], values[3::2]))


def check_embedding(host, target, emb):
    """Check a JSON embedding {"sToA", "tToB", "edges"} of target into host.

    ``host`` is (m, n, edge set); ``target`` is (m, n, edge list).
    """
    hm, hn, host_edges = host
    tm, tn, target_edges = target
    s_to_a, t_to_b = emb["sToA"], emb["tToB"]
    if len(s_to_a) != tm or len(t_to_b) != tn:
        return "embedding map sizes do not match the target"
    if len(set(s_to_a)) != len(s_to_a) or len(set(t_to_b)) != len(t_to_b):
        return "embedding map is not injective"
    if not all(0 <= a < hm for a in s_to_a) or not all(0 <= b < hn for b in t_to_b):
        return "embedding map leaves the host"
    image = {(s_to_a[s], t_to_b[t]) for s, t in target_edges}
    if not image <= host_edges:
        return "a target edge maps onto a non-edge of the host"
    if image != {tuple(e) for e in emb["edges"]} or len(emb["edges"]) != len(image):
        return "listed edge image differs from the image of the target edges"
    return None


def _degrees(edges, m, n):
    da, db = [0] * m, [0] * n
    for a, b in edges:
        da[a] += 1
        db[b] += 1
    return da, db


def check_subgraph_degrees(host_edges, m, n, edges, a_degrees, b_degrees):
    """Edges are distinct host edges whose degrees equal the given lists positionally."""
    edges = [tuple(e) for e in edges]
    if len(set(edges)) != len(edges):
        return "repeated edge"
    if not all(0 <= a < m and 0 <= b < n for a, b in edges):
        return "edge out of range"
    if host_edges is not None and not set(edges) <= host_edges:
        return "edge outside the host"
    if _degrees(edges, m, n) != (list(a_degrees), list(b_degrees)):
        return "degrees differ from the demand"
    return None


def check_packing(m, n, seq1, seq2, g1_edges, g2_edges):
    """Two disjoint simple graphs in K_{m,n} realizing seq1 and seq2 up to relabeling."""
    g1 = [tuple(e) for e in g1_edges]
    g2 = [tuple(e) for e in g2_edges]
    if set(g1) & set(g2):
        return "packed graphs share an edge"
    for edges, (a_seq, b_seq) in ((g1, seq1), (g2, seq2)):
        if len(set(edges)) != len(edges):
            return "repeated edge"
        if not all(0 <= a < m and 0 <= b < n for a, b in edges):
            return "edge out of range"
        da, db = _degrees(edges, m, n)
        if sorted(da) != sorted(a_seq) or sorted(db) != sorted(b_seq):
            return "packed graph does not realize its sequence"
    return None


def gale_ryser(a_degrees, b_degrees):
    """Bigraphic test through the conjugate of the B-side sequence."""
    if sum(a_degrees) != sum(b_degrees) or any(d < 0 for d in (*a_degrees, *b_degrees)):
        return False
    m = len(a_degrees)
    # conjugate[k] = #{j : b_j > k}; the prefix condition reads
    # sum_{i<=k} a*_i <= sum_{i<=k} conjugate[i-1] for every k.
    counts = [0] * (m + 1)
    for d in b_degrees:
        counts[min(d, m)] += 1
    conjugate = [0] * m
    running = 0
    for k in range(m, 0, -1):
        running += counts[k]
        conjugate[k - 1] = running
    lhs = rhs = 0
    for a, c in zip(sorted(a_degrees, reverse=True), conjugate):
        lhs += a
        rhs += c
        if lhs > rhs:
            return False
    return True


def erdos_gallai(degrees):
    """Graphic test from networkx, a separate implementation of Erdős–Gallai."""
    import networkx

    return networkx.is_valid_degree_sequence_erdos_gallai(list(degrees))
