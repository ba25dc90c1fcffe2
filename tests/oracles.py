"""Independent brute-force oracles.

Everything here recomputes results from first principles, staying away from
the code paths under test: a free-word rewriter applying relations in random
order, transitive-closure reachability, subset-enumeration closure,
closed-walk cycle enumeration, multiplication matrices of simple field
extensions, term-by-term and row-by-column products in ``FieldElement``
arithmetic for the payload kernels of the algebra and matrix products and
of the shared linear-combination core, the cofactor determinant,
function-field fractions reduced by the general gcd for every denominator,
the recursive and pairwise graph walks that the iterative ones replaced,
the two-branch module basis sampler that scans every edge of the graph, and
the two-sided word walk that evaluates every reduced word both in the
algebra and in the matrix corner, with no corner certificate, and the
corner of a quotient or breaking witness read through the quotient map.
"""

from __future__ import annotations

from fractions import Fraction

from lpa import algebra, fields, freegroups, graphs, ideals, linalg, polys, reps

# symbols: ("v", name) | ("e", name) | ("g", name)  (g = ghost edge)


def sym_source(g, s):
    kind, name = s
    if kind == "v":
        return name
    e = g.edge_map[name]
    return e.src if kind == "e" else e.dst


def sym_range(g, s):
    kind, name = s
    if kind == "v":
        return name
    e = g.edge_map[name]
    return e.dst if kind == "e" else e.src


def _applicable(g, word, leavitt):
    """All (position, rule) pairs applicable in a free word."""
    out = []
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if sym_range(g, a) != sym_source(g, b):
            out.append((i, "zero"))
            continue
        if a[0] == "v":
            out.append((i, "absorb_left"))
        if b[0] == "v":
            out.append((i, "absorb_right"))
        if a[0] == "g" and b[0] == "e":
            out.append((i, "ck1"))
        if leavitt and a[0] == "e" and b[0] == "g" and a[1] == b[1]:
            e = a[1]
            v = g.edge_map[e].src
            if not g.out_bundles[v] and g.out_edges[v] and g.out_edges[v][-1] == e:
                out.append((i, "ck2"))
    return out


def _apply(g, word, pos, rule):
    """Rewrite one word into a list of (word, int coefficient)."""
    a, b = word[pos], word[pos + 1]
    head, tail = word[:pos], word[pos + 2:]
    if rule == "zero":
        return []
    if rule == "absorb_left":
        return [(head + (b,) + tail, 1)]
    if rule == "absorb_right":
        return [(head + (a,) + tail, 1)]
    if rule == "ck1":
        if a[1] == b[1]:
            # e* e = r(e), the range of the underlying edge
            return [(head + (("v", g.edge_map[a[1]].dst),) + tail, 1)]
        return []
    # ck2: e_m e_m* -> v - sum_{i<m} e_i e_i*
    e = a[1]
    v = g.edge_map[e].src
    out = [(head + (("v", v),) + tail, 1)]
    for other in g.out_edges[v][:-1]:
        out.append((head + (("e", other), ("g", other)) + tail, -1))
    return out


def rewrite_to_fixpoint(g, combo, rng, leavitt=True, max_steps=200_000):
    """Apply relations at randomly chosen positions until none applies."""
    combo = {w: Fraction(c) for w, c in combo.items() if c}
    for _ in range(max_steps):
        candidates = []
        for w in combo:
            for pos, rule in _applicable(g, w, leavitt):
                candidates.append((w, pos, rule))
        if not candidates:
            return combo
        w, pos, rule = rng.choice(candidates)
        c = combo.pop(w)
        for nw, k in _apply(g, w, pos, rule):
            s = combo.get(nw, Fraction(0)) + c * k
            if s:
                combo[nw] = s
            else:
                combo.pop(nw, None)
    raise AssertionError("rewriting did not terminate")


def word_to_monomial(g, word):
    """A fixpoint word is a single vertex or reals-then-ghosts."""
    if len(word) == 1 and word[0][0] == "v":
        return algebra.Monomial((), (), word[0][1])
    reals, ghosts = [], []
    for kind, name in word:
        assert kind != "v", f"vertex symbol inside normal word {word}"
        if kind == "e":
            assert not ghosts, f"real edge after ghost in normal word {word}"
            reals.append(name)
        else:
            ghosts.append(name)
    lam = tuple(reals)
    nu = tuple(reversed(ghosts))
    if lam:
        anchor = g.edge_map[lam[-1]].dst
    else:
        anchor = g.edge_map[nu[-1]].dst
    return algebra.Monomial(lam, nu, anchor)


def combo_to_element(g, field, combo, mode):
    acc = {}
    for word, c in combo.items():
        m = word_to_monomial(g, word)
        k = fields.from_fraction(field, c)
        acc[m] = acc.get(m, fields.zero(field)) + k
    return algebra.element(g, field, mode, {m: c for m, c in acc.items() if not c.is_zero()})


def word_to_element(g, field, word, mode):
    """Interpret a free word through the structured algebra (the path under
    test) by multiplying generator elements."""
    out = algebra.identity(g, field, mode)
    for kind, name in word:
        if kind == "v":
            out = out * algebra.vertex_element(g, field, name, mode)
        elif kind == "e":
            out = out * algebra.edge_element(g, field, name, mode)
        else:
            out = out * algebra.ghost_element(g, field, name, mode)
    return out


def random_free_word(rng, g, max_len):
    symbols = [("v", v) for v in g.vertices]
    symbols += [("e", e) for e in g.edge_map]
    symbols += [("g", e) for e in g.edge_map]
    return tuple(rng.choice(symbols) for _ in range(rng.randint(1, max_len)))


# -- graph oracles ------------------------------------------------------------


def reachability_closure(g):
    """Transitive-reflexive closure by iterated squaring of the relation."""
    verts = list(g.vertices)
    rel = {(v, v) for v in verts}
    for e in g.edges:
        rel.add((e.src, e.dst))
    for src, dst in g.bundles:
        rel.add((src, dst))
    while True:
        new = set(rel)
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c:
                    new.add((a, d))
        if new == rel:
            return rel
        rel = new


def hs_closure_by_enumeration(g, X):
    """Least hereditary saturated superset by scanning all supersets."""
    verts = list(g.vertices)
    best = None
    n = len(verts)
    for mask in range(2 ** n):
        S = frozenset(v for i, v in enumerate(verts) if mask >> i & 1)
        if not set(X) <= S:
            continue
        if graphs.is_hereditary(g, S) and graphs.is_saturated(g, S):
            if best is None or len(S) < len(best):
                best = S
    return best


def closed_walks_cycles(g):
    """Rotation classes of cycles via brute-force closed-walk enumeration."""
    found = set()
    max_len = len(g.edges)

    def extend(walk):
        last = g.edge_map[walk[-1]].dst
        first = g.edge_map[walk[0]].src
        src_seen = {g.edge_map[e].src for e in walk}
        if last == first:
            # canonical rotation: lexicographically least edge tuple
            rots = [tuple(walk[k:] + walk[:k]) for k in range(len(walk))]
            found.add(min(rots))
            return
        if last in src_seen or len(walk) >= max_len:
            return
        for e in g.out_edges[last]:
            extend(walk + [e])

    for e in g.edge_map:
        extend([e])
    return found


def recursive_simple_cycles(g):
    """The recursive cycle listing: depth-first from each base through the
    vertices declared after it, with a fresh visited set per call."""
    index = {v: i for i, v in enumerate(g.vertices)}
    out = []

    def dfs(base, current, edges_so_far, visited):
        for name in g.out_edges[current]:
            dst = g.range(name)
            if dst == base:
                out.append(graphs.make_cycle(g, edges_so_far + [name]))
            elif dst not in visited and index[dst] > index[base]:
                dfs(base, dst, edges_so_far + [name], visited | {dst})

    for base in g.vertices:
        dfs(base, base, [], {base})
    return out


def enumerated_exclusive_cycle(g, c):
    """No vertex of c lies on a different cycle (rotations of c excluded),
    by comparing c with every cycle of the recursive listing."""
    mine = set(c.vertices(g))
    for other in recursive_simple_cycles(g):
        if graphs.same_cycle(c, other):
            continue
        if mine & set(other.vertices(g)):
            return False
    return True


def recursive_paths_into(g, excluded_edges):
    """Paths (trivial included) ending at each vertex and avoiding the
    excluded edges, by memoized recursion on in-edges; None on a cycle."""
    counts = {}

    def count(v):
        if v in counts:
            return counts[v]
        counts[v] = None    # cycle guard
        total = 1
        for e in g.edges:
            if e.name in excluded_edges or e.dst != v:
                continue
            sub = count(e.src)
            if sub is None:
                return None
            total += sub
        counts[v] = total
        return total

    for v in g.vertices:
        if count(v) is None:
            return None
    return counts


def all_paths(g):
    """Every finite path over named edges as ``(edges, range)``, breadth-first
    from the trivial paths; the graph must be cycle-free."""
    if g.cycles:
        raise ValueError("path enumeration needs an acyclic graph")
    out = [((), v) for v in g.vertices]
    frontier = list(out)
    while frontier:
        nxt = []
        for p, end in frontier:
            for name in g.out_edges[end]:
                nxt.append((p + (name,), g.range(name)))
        out += nxt
        frontier = nxt
    return out


def paired_basis(g, leavitt):
    """Every lam nu* over two paths of ``all_paths`` with a common range,
    without the forbidden family when ``leavitt``, in basis order."""
    by_range = {}
    for p, end in all_paths(g):
        by_range.setdefault(end, []).append(p)
    basis = []
    for v, paths in by_range.items():
        for lam in paths:
            for nu in paths:
                m = algebra.Monomial(lam, nu, v)
                if not (leavitt and algebra.is_forbidden(g, m)):
                    basis.append(m)
    return sorted(basis, key=algebra.Monomial.sort_key)


def pairwise_downward_directed(g):
    """Every pair of vertices has a common descendant, pair by pair."""
    desc = {v: {w for w in g.vertices if graphs.reaches(g, v, w)} for v in g.vertices}
    return all(desc[u] & desc[v] for u in g.vertices for v in g.vertices)


# -- extension-field oracle ---------------------------------------------------


def multiplication_matrix(coords, modulus, p):
    """Matrix of y -> a*y on K[x]/(f) in the basis 1, x, .., x^(n-1).

    ``coords`` are the n coordinates of a and ``modulus`` the coefficients of
    f, both degree-ascending, over K = Q (p = 0) or F_p.  Column j holds
    a*x^j, built by repeated multiplication by x with x^n folded back through
    the monic f.
    """
    def norm(c):
        return c % p if p else Fraction(c)

    lead_inv = pow(modulus[-1], p - 2, p) if p else 1 / Fraction(modulus[-1])
    monic = [norm(c * lead_inv) for c in modulus[:-1]]
    col = [norm(c) for c in coords]
    cols = []
    for _ in range(len(monic)):
        cols.append(col)
        top = col[-1]
        col = [norm(c - top * m) for c, m in zip([0] + col[:-1], monic)]
    return [list(row) for row in zip(*cols)]


def mat_mul(a, b, p):
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]
    return [[c % p if p else c for c in row] for row in out]


# -- slow product paths -------------------------------------------------------


def leavitt_rewrite(g, m):
    """The CK2 rewrite of one raw monomial by recursion on its trailing
    forbidden pair, uncached: {Monomial: int weight}."""
    if not algebra.is_forbidden(g, m):
        return {m: 1}
    v = g.edge_map[m.lam[-1]].src
    lam, nu = m.lam[:-1], m.nu[:-1]
    out = leavitt_rewrite(g, algebra.Monomial(lam, nu, v))
    for other in g.out_edges[v][:-1]:
        m2 = algebra.Monomial(lam + (other,), nu + (other,), g.edge_map[other].dst)
        out[m2] = out.get(m2, 0) - 1
    return out


def algebra_product(x, y):
    """The terms {Monomial: FieldElement} of x * y, formed term by term in
    FieldElement arithmetic."""
    g, field = x.graph, x.field
    acc = {}
    for m1, c1 in coefficients(x).items():
        for m2, c2 in coefficients(y).items():
            raw = algebra.mono_mul(g, m1, m2)
            if raw is None:
                continue
            parts = leavitt_rewrite(g, raw) if x.mode == algebra.LEAVITT else {raw: 1}
            for m, k in parts.items():
                acc[m] = acc.get(m, fields.zero(field)) + c1 * c2 * fields.from_int(field, k)
    return {m: c for m, c in acc.items() if not c.is_zero()}


def matrix_product(a, b):
    """The rows of the dense product a * b, row by column in FieldElement
    arithmetic."""
    n = a.n
    return tuple(
        tuple(
            sum((a.rows[i][k] * b.rows[k][j] for k in range(n)), fields.zero(a.field))
            for j in range(n)
        )
        for i in range(n)
    )


def det_cofactor(m):
    """The determinant of an n x n matrix by cofactor expansion along the
    first row."""
    n = m.n
    field = m.field
    if n == 0:
        return fields.one(field)
    rows = m.rows
    if n == 1:
        return rows[0][0]
    total = fields.zero(field)
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = linalg.from_rows(field, (row[:j] + row[j + 1:] for row in rows[1:]))
        term = a * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def coefficients(x):
    """The terms {key: FieldElement} of a linear combination, whose stored
    terms hold raw payloads."""
    return {key: fields.FieldElement(x.field, c) for key, c in x.terms}


def linear_combination(field, *scaled):
    """The terms {key: FieldElement} of k1 x1 + k2 x2 + ... for ``(k, x)``
    pairs of a scalar and a combination, summed key by key in FieldElement
    arithmetic, zeros dropped."""
    acc = {}
    for k, x in scaled:
        for key, c in coefficients(x).items():
            acc[key] = acc.get(key, fields.zero(field)) + k * c
    return {key: c for key, c in acc.items() if not c.is_zero()}


# -- function-field fractions --------------------------------------------------


def frac_reduce(p, num, den):
    """The canonical payload of num/den in a function field of characteristic
    p: divide both by their gcd, whatever den is, and make den monic."""
    if not num:
        return ((), (((0,) * len(next(iter(den))), 1),))
    g = polys.pgcd(num, den, p)
    num, den = polys.pdivexact(num, g, p), polys.pdivexact(den, g, p)
    inv = polys.cinv(polys.plead(den)[1], p)
    return polys.pcanon(polys.pscale(num, inv, p)), polys.pcanon(polys.pscale(den, inv, p))


def frac_add(p, a, b):
    (an, ad), (bn, bd) = (tuple(map(dict, x)) for x in (a, b))
    return frac_reduce(
        p, polys.padd(polys.pmul(an, bd, p), polys.pmul(bn, ad, p), p), polys.pmul(ad, bd, p)
    )


def frac_mul(p, a, b):
    (an, ad), (bn, bd) = (tuple(map(dict, x)) for x in (a, b))
    return frac_reduce(p, polys.pmul(an, bn, p), polys.pmul(ad, bd, p))


def frac_inv(p, a):
    return frac_reduce(p, dict(a[1]), dict(a[0]))


# -- module bases --------------------------------------------------------------


def sample_basis(module, count):
    """Breadth-first basis sample: rational tails from the rotations of the
    cycle, or finite paths from the module's vertex, each step prepending
    every edge of ``g.edges`` that enters the current start vertex."""
    g = module.graph
    out = []
    if module.kind == "chen":
        c = graphs.make_cycle(g, module.cycle)
        n = len(c.edges)
        seen = set()
        frontier = []
        for k in range(n):
            b = reps.canonicalize_rational(g, (), c.edges, k)
            if b not in seen:
                seen.add(b)
                out.append(b)
                frontier.append(b)
        while frontier and len(out) < count:
            nxt = []
            for b in frontier:
                for e in g.edges:
                    if e.dst != b.start(g):
                        continue
                    nb = reps.canonicalize_rational(g, (e.name,) + b.prefix, b.cycle, b.phase)
                    if nb not in seen:
                        seen.add(nb)
                        out.append(nb)
                        nxt.append(nb)
            frontier = nxt
        return out[:count]
    root_vertex = module.vertex
    frontier = [()]
    out.append(reps.FinitePath((), root_vertex))
    while frontier and len(out) < count:
        nxt = []
        for path in frontier:
            head = g.edge_map[path[0]].src if path else root_vertex
            for e in g.edges:
                if e.dst == head:
                    p = (e.name,) + path
                    out.append(reps.FinitePath(p, root_vertex))
                    nxt.append(p)
        frontier = nxt
    return out[:count]


# -- free words ----------------------------------------------------------------


def two_sided_free_report(pair, L):
    """Evaluate every nonempty reduced word of length <= L over the pair and
    its inverses, in the algebra and in the matrix corner."""
    if not 1 <= L <= freegroups.MAX_VERIFY_LEN:
        raise ValueError(f"word length bound must lie in 1..{freegroups.MAX_VERIFY_LEN}")
    a, b = pair.names
    names = (a, b, a + "^-1", b + "^-1")
    alg = (pair.a, pair.b, pair.a_inv, pair.b_inv)
    pm = pair.matrices
    mat = (pm.a, pm.b, pm.a_inv, pm.b_inv)
    inverse_of = (2, 3, 0, 1)
    one_alg = algebra.identity(pair.graph, pair.field)
    one_mat = linalg.identity_matrix(pair.field, mat[0].n)
    checked = 0
    failures = []
    matrix_ok = True
    stack = [(one_alg, one_mat, -1, 0, ())]
    while stack:
        elt, m, last, depth, word = stack.pop()
        if depth == L:
            continue
        for k in range(4):
            if last >= 0 and k == inverse_of[last]:
                continue
            nelt = elt * alg[k]
            nmat = m * mat[k]
            nword = word + (names[k],)
            checked += 1
            alg_trivial = nelt == one_alg
            mat_trivial = nmat == one_mat
            if alg_trivial:
                failures.append(" ".join(nword))
            if mat_trivial:
                matrix_ok = False
            if alg_trivial and not mat_trivial:
                # impossible for a homomorphism; flag loudly
                failures.append("INCONSISTENT: " + " ".join(nword))
                matrix_ok = False
            stack.append((nelt, nmat, k, depth + 1, nword))
    if checked != freegroups.expected_word_count(L):
        raise freegroups.WitnessError(
            f"checked {checked} words, expected {freegroups.expected_word_count(L)}")
    return freegroups.FreenessReport(L, checked, not failures, matrix_ok, tuple(failures[:32]))


def quotient_corner(g, field, witness):
    """The corner map of a quotient or breaking witness through the
    quotient: x goes through phi to L_K(E/(H, S)) and acts there on the sink
    module at r(f), or at r(f_q) for a breaking vertex, spanned by the edge
    path and the trivial path; coefficients are read as field elements."""
    qm = ideals.make_quotient_map(g, witness.spec, field)
    f = witness.edge
    if isinstance(witness, freegroups.BreakingVertex):
        f = ideals.primed(f)
    w = qm.target.range(f)
    module = reps.sink_module(qm.target, field, w)
    basis = (reps.FinitePath((f,), w), reps.FinitePath((), w))

    def image(x):
        y = ideals.phi_apply(qm, x)
        cols = []
        for b in basis:
            out = reps.act(y, reps.basis_vector(module, b))
            if any(k not in basis for k, _ in out.terms):
                raise freegroups.WitnessError("element does not stabilize the corner")
            cols.append([out.coeff(k) for k in basis])
        return linalg.from_rows(field, zip(*cols))

    return image
