"""Independent combinatorial oracles used only by the tests.

These deliberately avoid the production code paths: weight multiplicities
are counted as semistandard tableaux (Kostka numbers), graded fusion
multiplicities at node 1 via charge on those tableaux (Kostka-Foulkes
polynomials), graded fusion multiplicities at every node via the
fermionic formula on rigged-configuration shapes, tensor product
multiplicities via the Littlewood-Richardson rule on skew tableaux,
conjugate partitions by direct column counting, and affine Weyl lengths
by listing the negated positive affine roots.
"""

from __future__ import annotations

import itertools
from functools import lru_cache


def shape_of_weight(lam):
    """Partition rows (length n+1, trailing zeros kept) for a dominant weight."""
    n = len(lam)
    rows = []
    for i in range(n + 1):
        rows.append(sum(lam[i:]))
    return tuple(rows)


def content_of_weight(shape, mu):
    """Composition (c_1, ..., c_{n+1}) with c_i - c_{i+1} = mu_i, or None."""
    n = len(mu)
    total = sum(shape)
    tail = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        tail[i] = tail[i + 1] + mu[i]
    base, rem = divmod(total - sum(tail), n + 1)
    if rem != 0:
        return None
    content = tuple(t + base for t in tail)
    if any(c < 0 for c in content):
        return None
    return content


def ssyt(shape, content):
    """Semistandard tableaux of the given shape and content, as row tuples.

    Entries are 1..len(content).  Brute-force row-by-row enumeration with
    column checks; fine at the sizes the tests use.
    """
    shape = tuple(r for r in shape if r > 0)
    if sum(shape) != sum(content):
        return
    if not shape:
        yield ()
        return
    nvals = len(content)

    def rows(length, above, avail):
        """Yield (row, leftover) for weakly increasing rows below `above`."""

        def rec(j, prev, avail):
            if j == length:
                yield (), avail
                return
            for v in range(max(prev, above[j] + 1), nvals + 1):
                if avail[v - 1] == 0:
                    continue
                nxt = list(avail)
                nxt[v - 1] -= 1
                yield from (
                    ((v,) + rest, left) for rest, left in rec(j + 1, v, tuple(nxt))
                )

        yield from rec(0, 1, avail)

    def fill(i, above, avail):
        if i == len(shape):
            yield ()
            return
        for row, left in rows(shape[i], above, avail):
            for rest in fill(i + 1, row, left):
                yield (row,) + rest

    yield from fill(0, (0,) * shape[0], tuple(content))


def count_ssyt(shape, content):
    """Number of semistandard tableaux of the given shape and content."""
    return sum(1 for _ in ssyt(shape, content))


def charge(tableau):
    """Lascoux-Schützenberger charge of a tableau of partition content.

    The row reading word (bottom row first, each row left to right) is
    split into standard subwords: starting at its right end, scan
    leftwards, cyclically, for a 1, then a 2, and so on up to the
    largest letter left.  In a standard subword letter r + 1 has the
    index of r, plus one if the scan wrapped around to find it; the
    charge is the sum of all indices.
    """
    word = [v for row in reversed(tableau) for v in row]
    total = 0
    while word:
        pos, index, taken = len(word), 0, set()
        for letter in range(1, max(word) + 1):
            at = [p for p in range(pos) if word[p] == letter]
            if not at:
                index += 1
                at = [p for p in range(len(word)) if word[p] == letter]
            pos = at[-1]
            total += index
            taken.add(pos)
        word = [v for p, v in enumerate(word) if p not in taken]
    return total


def cocharge_graded_character(n, xi):
    """Predicted graded character of the node-1 fusion of the V(xi_k omega_1).

    For a partition xi, V(lam) occurs in degree n(xi) - charge(T) once
    for every semistandard tableau T of shape lam and content xi, where
    n(xi) = sum (j-1) xi_j: the graded multiplicity is
    q^{n(xi)} K_{lam,xi}(q^{-1}), a cocharge Kostka-Foulkes polynomial
    (Feigin-Loktev).  Shapes have at most n+1 rows; the weight
    multiplicities of V(lam) are SSYT counts.  Returns a dict
    (weight, degree) -> multiplicity.
    """
    xi = tuple(sorted(xi, reverse=True))
    size = sum(xi)
    top = sum(j * x for j, x in enumerate(xi))
    out = {}
    for shape in _partitions_into_rows(size, n + 1, size):
        degrees = [top - charge(t) for t in ssyt(shape, xi)]
        if not degrees:
            continue
        for content in itertools.product(range(size + 1), repeat=n + 1):
            mult = count_ssyt(shape, content)
            if not mult:
                continue
            wt = tuple(content[i] - content[i + 1] for i in range(n))
            for d in degrees:
                out[(wt, d)] = out.get((wt, d), 0) + mult
    return out


def kostka_multiplicity(lam, mu):
    """Weight multiplicity dim V(lam)_mu for sl_{n+1}, via SSYT counting."""
    shape = shape_of_weight(lam)
    content = content_of_weight(shape, mu)
    if content is None:
        return 0
    return count_ssyt(shape, content)


def _is_lattice_word(word, nvals):
    counts = [0] * (nvals + 1)
    for v in word:
        counts[v] += 1
        if v > 1 and counts[v] > counts[v - 1]:
            return False
    return True


def lr_coefficient(lam_shape, mu_shape, nu_shape):
    """Littlewood-Richardson coefficient c^nu_{lam,mu} via skew tableaux.

    Counts semistandard fillings of nu/lam with content mu whose reverse
    reading word is a lattice word.
    """
    nrows = len(nu_shape)
    lam_shape = tuple(lam_shape) + (0,) * (nrows - len(lam_shape))
    if any(nu_shape[i] < lam_shape[i] for i in range(nrows)):
        return 0
    if sum(nu_shape) - sum(lam_shape) != sum(mu_shape):
        return 0
    nvals = len(mu_shape)
    remaining = list(mu_shape)
    grid = [[0] * nu_shape[i] for i in range(nrows)]
    cells = []
    for i in range(nrows):
        for j in range(lam_shape[i], nu_shape[i]):
            cells.append((i, j))
    count = 0

    def word_ok():
        word = []
        for i in range(nrows):
            for j in range(nu_shape[i] - 1, lam_shape[i] - 1, -1):
                word.append(grid[i][j])
        return _is_lattice_word(word, nvals)

    def rec(k):
        nonlocal count
        if k == len(cells):
            if all(r == 0 for r in remaining) and word_ok():
                count += 1
            return
        i, j = cells[k]
        left = grid[i][j - 1] if j > lam_shape[i] else 1
        above = grid[i - 1][j] + 1 if i > 0 and j < nu_shape[i - 1] else 1
        for v in range(max(left, above, 1), nvals + 1):
            if remaining[v - 1] == 0:
                continue
            remaining[v - 1] -= 1
            grid[i][j] = v
            rec(k + 1)
            grid[i][j] = 0
            remaining[v - 1] += 1

    rec(0)
    return count


def lr_tensor_decompose(lam, mu):
    """Tensor decomposition for sl_{n+1} weights via the LR rule."""
    n = len(lam)
    lam_shape = shape_of_weight(lam)
    mu_shape = tuple(r for r in shape_of_weight(mu) if r > 0)
    total = sum(lam_shape) + sum(mu_shape)
    out = {}
    for nu_shape in _partitions_into_rows(total, n + 1, lam_shape[0] + sum(mu_shape)):
        c = lr_coefficient(lam_shape, mu_shape, nu_shape)
        if c:
            w = tuple(nu_shape[i] - nu_shape[i + 1] for i in range(n))
            out[w] = out.get(w, 0) + c
    return out


def _partitions_into_rows(total, nrows, maxpart):
    def rec(remaining, rows_left, cap):
        if rows_left == 0:
            if remaining == 0:
                yield ()
            return
        lo = -(-remaining // rows_left)  # ceil, keeps rows weakly decreasing
        for first in range(min(cap, remaining), max(lo - 1, -1), -1):
            for rest in rec(remaining - first, rows_left - 1, first):
                yield (first,) + rest

    yield from rec(total, nrows, maxpart)


def conjugate_by_columns(parts):
    """Conjugate partition by counting columns directly."""
    if not parts:
        return ()
    out = []
    for j in range(parts[0]):
        out.append(sum(1 for p in parts if p > j))
    return tuple(out)


def all_q_string_groupings(exponents):
    """All ways to split a multiset of exponents into q-strings.

    A q-string is a set {z-(m-1), z-(m-3), ..., z+(m-1)}.  Used to verify
    that exactly one grouping satisfies the pairwise separation condition.
    """
    exps = sorted(exponents, reverse=True)
    if not exps:
        yield ()
        return
    top = exps[0]
    rest = exps[1:]
    # choose how far the string starting at top extends downward
    for length in range(1, len(exps) + 1):
        needed = [top - 2 * k for k in range(1, length)]
        pool = list(rest)
        ok = True
        for x in needed:
            if x in pool:
                pool.remove(x)
            else:
                ok = False
                break
        if not ok:
            continue
        center = top - (length - 1)
        for sub in all_q_string_groupings(pool):
            yield ((center, length),) + sub


def _cartan(n):
    """The Cartan matrix of A_n, written out so nothing is shared with the engine."""
    return [[2 if a == b else -(abs(a - b) == 1) for b in range(n)] for a in range(n)]


def _dominant_below(n, top):
    """(lam, N) for every dominant lam = top - sum_a N_a alpha_a, N >= 0.

    The root coordinates of a dominant weight are non-negative, so N_a is
    at most the a-th root coordinate of top, (C^{-1} top)_a, with
    (C^{-1})_{ab} = min(a, b)(n + 1 - max(a, b))/(n + 1) in type A_n.
    """
    bounds = [
        sum(min(a, b) * (n + 1 - max(a, b)) * top[b - 1] for b in range(1, n + 1))
        // (n + 1)
        for a in range(1, n + 1)
    ]
    cartan = _cartan(n)  # row a: the coordinates of alpha_a
    for counts in itertools.product(*(range(x + 1) for x in bounds)):
        lam = tuple(
            top[b] - sum(cartan[a][b] * counts[a] for a in range(n)) for b in range(n)
        )
        if min(lam) >= 0:
            yield lam, counts


def _partitions(total, cap=None):
    """Every partition of total with parts at most cap, parts descending."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap or total), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _q_binomial(top, k):
    """Coefficients of the Gaussian binomial [top choose k]_q, constant first."""
    if k == 0 or k == top:
        return (1,)
    a, b = _q_binomial(top - 1, k - 1), _q_binomial(top - 1, k)
    out = [0] * (k * (top - k) + 1)
    for e, c in enumerate(a):
        out[e] += c
    for e, c in enumerate(b):
        out[e + k] += c  # q^k [top-1 choose k]
    return tuple(out)


def fermionic_graded_multiplicities(n, rectangles):
    """Graded multiplicities of the simple modules in the fusion of the
    Kirillov-Reshetikhin modules W^(r)_s of sl_{n+1}, one per rectangle
    (r, s), from the fermionic formula (Hatayama-Kuniba-Okado-Takagi-
    Yamada, arXiv:math/9812022; fusion products by Naoi's X = M theorem).

        M_lam(q) = sum_nu q^c(nu) prod_{a,k} [p_k^(a) + m_k^(a) choose m_k^(a)]_q

    over n-tuples of partitions nu = (nu^(1), ..., nu^(n)) with
    |nu^(a)| the alpha_a-coefficient of sum_j s_j omega_(r_j) - lam;
    m_k^(a) counts the parts of nu^(a) equal to k.  The vacancy numbers
    p_k^(a) = sum_{j: r_j = a} min(k, s_j) - sum_b C_ab sum_l min(k, nu^(b)_l)
    must all be >= 0, and
    c(nu) = 1/2 sum_{a,b} C_ab sum_{l,l'} min(nu^(a)_l, nu^(b)_l')
            - sum_j sum_l min(s_j, nu^(r_j)_l).
    V(lam) sits in degree d with multiplicity [q^-d] M_lam(q).  C is
    the Cartan matrix of A_n.  Returns {(lam, d): multiplicity}.
    """
    cartan = _cartan(n)
    top = [0] * n
    for r, s in rectangles:
        top[r - 1] += s
    sizes = [s for _, s in rectangles]
    out = {}
    for lam, counts in _dominant_below(n, top):
        for nu in itertools.product(*(tuple(_partitions(x)) for x in counts)):
            kmax = max(sizes + [p for parts in nu for p in parts] + [1])
            vacancy = [
                [
                    sum(min(k, s) for r, s in rectangles if r == a + 1)
                    - sum(
                        cartan[a][b] * sum(min(k, p) for p in nu[b]) for b in range(n)
                    )
                    for k in range(kmax + 1)
                ]
                for a in range(n)
            ]
            if min(min(row[1:]) for row in vacancy) < 0:
                continue
            pairing = sum(
                cartan[a][b] * sum(min(p, q) for p in nu[a] for q in nu[b])
                for a in range(n)
                for b in range(n)
            )
            charge = pairing // 2 - sum(
                min(s, p) for r, s in rectangles for p in nu[r - 1]
            )
            poly = {charge: 1}  # exponent -> coefficient
            for a in range(n):
                for k in set(nu[a]):
                    m = nu[a].count(k)
                    product = {}
                    for f, c in enumerate(_q_binomial(vacancy[a][k] + m, m)):
                        for e, x in poly.items():
                            product[e + f] = product.get(e + f, 0) + x * c
                    poly = product
            for e, c in poly.items():
                if c:
                    out[(lam, -e)] = out.get((lam, -e), 0) + c
    return out


def dominant_graded_character(n, multiplicities):
    """{(mu, d): multiplicity} at the dominant weights mu, from graded
    multiplicities {(lam, d): k} of simple modules; weight
    multiplicities are Kostka numbers.  A graded g-module is fixed by
    these values, since each degree is a sum of simple modules."""
    out = {}
    for (lam, d), k in multiplicities.items():
        for mu, _ in _dominant_below(n, lam):
            c = _kostka(lam, mu)
            if c:
                out[(mu, d)] = out.get((mu, d), 0) + k * c
    return out


@lru_cache(maxsize=None)
def _kostka(lam, mu):
    return kostka_multiplicity(lam, mu)


def affine_length_by_roots(w, mu):
    """Length of t_mu ∘ w by listing the positive affine real roots it negates.

    w is a permutation of 1..n+1 acting by eps_a -> eps_{w(a)}, and mu is an
    integral weight in the fundamental weight basis, so its eps coordinates
    are the tail sums mu_a + ... + mu_n (up to a common shift).  A positive
    real root is alpha + k delta with alpha = eps_a - eps_b and k >= 0, or
    k >= 1 when a > b; t_mu ∘ w sends it to w(alpha) + (k - (w(alpha), mu))
    delta, which is negative when its delta coefficient is, or when that is
    zero and w(alpha) is a negative root.  Only k <= |(w(alpha), mu)| can be
    negated; the count runs two past that.
    """
    n = len(mu)
    tail = [sum(mu[j:]) for j in range(n + 1)]
    count = 0
    for a, b in itertools.permutations(range(1, n + 2), 2):
        wa, wb = w[a - 1], w[b - 1]
        pairing = tail[wa - 1] - tail[wb - 1]
        for k in range(0 if a < b else 1, abs(pairing) + 3):
            image = k - pairing
            if image < 0 or (image == 0 and wa > wb):
                count += 1
    return count
