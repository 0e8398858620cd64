"""Naive list-based reference implementations, independent of the package.

Everything here works on plain lists of 0/1 ints with no bit packing, so it
stays an honest cross-check for the packed-word code under test. Only the
package's two solve error types are imported, to raise.
"""

from itertools import product
from math import comb
from operator import and_

from npcode.gf2 import Inconsistent, NoUniqueSolution


def encode_naive(g_rows, message):
    n = len(g_rows[0])
    cw = [0] * n
    for i, bit in enumerate(message):
        if bit:
            cw = [a ^ b for a, b in zip(cw, g_rows[i])]
    return cw


def min_distance_naive(g_rows):
    k = len(g_rows)
    best = None
    for u in product((0, 1), repeat=k):
        if not any(u):
            continue
        w = sum(encode_naive(g_rows, u))
        best = w if best is None else min(best, w)
    return best


def failure_count_by_weights(weights, t):
    """F_t = sum over w <= t of A_w * C(n - w, t - w), from the weight counts
    ``weights`` = [A_0, ..., A_n]: the t-subsets of the n positions that hold
    the support of a nonzero codeword, each counted once per support it
    holds. A t-set fails exactly when it holds one, and for d <= t < 3d/2 it
    holds at most one (two supports S1, S2 would span
    (|S1| + |S2| + |S1 ^ S2|) / 2 >= 3d/2 positions), so there F_t is the
    number of unrecoverable t-subsets; past that range it overcounts."""
    n = len(weights) - 1
    return sum(weights[w] * comb(n - w, t - w) for w in range(1, t + 1))


def span_weights_naive(rows):
    """Weight histogram (index 0..n) of every XOR combination of the 0/1
    lists ``rows``, each of length n: the span is listed word by word,
    doubled by each row in turn, and every word's ones are summed."""
    span = [[0] * len(rows[0])]
    for row in rows:
        span += [[a ^ b for a, b in zip(word, row)] for word in span]
    hist = [0] * (len(rows[0]) + 1)
    for word in span:
        hist[sum(word)] += 1
    return hist


def rank_naive(rows):
    mat = [list(r) for r in rows]
    nrows, ncols = len(mat), len(mat[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(nrows):
            if i != r and mat[i][c]:
                mat[i] = [x ^ y for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == nrows:
            break
    return r


def mat_vec_naive(rows, v):
    ncols = len(rows[0])
    return [
        sum(v[i] & rows[i][j] for i in range(len(rows))) % 2 for j in range(ncols)
    ]


def agreeing_messages(g_rows, received):
    """All messages whose codeword matches `received` on its non-None slots."""
    k = len(g_rows)
    out = []
    for u in product((0, 1), repeat=k):
        cw = encode_naive(g_rows, u)
        if all(r is None or r == c for r, c in zip(received, cw)):
            out.append(u)
    return out


def erasure_fill_naive(h_rows, erased, word):
    """The one filling of the ``erased`` positions of ``word`` (0/1 entries;
    those at erased positions are ignored) that has even overlap with every
    parity-check row, found by trying all 2^t fillings.

    Raises Inconsistent when no filling fits and NoUniqueSolution when more
    than one does: the package's types, so a test can compare outcomes.
    """
    erased = sorted(set(erased))
    # per row: its parity over the surviving entries, and its erased entries
    checks = [
        ((sum(map(and_, row, word)) - sum(row[p] & word[p] for p in erased)) % 2, [row[p] for p in erased])
        for row in h_rows
    ]
    fits = []
    for bits in product((0, 1), repeat=len(erased)):
        if all((base + sum(map(and_, bits, terms))) % 2 == 0 for base, terms in checks):
            fits.append(bits)
            if len(fits) > 1:
                break
    if not fits:
        raise Inconsistent("no filling of the erased positions fits every row")
    if len(fits) > 1:
        raise NoUniqueSolution("more than one filling fits every row")
    filled = list(word)
    for p, bit in zip(erased, fits[0]):
        filled[p] = bit
    return filled


def transpose_naive(words, width):
    """Column j < ``width`` of the packed rows ``words``, packed the same way
    (bit i of column j is bit j of ``words[i]``): each row unpacked into a
    list of bits, the lists transposed by ``zip``, each column packed back."""
    rows = [[(w >> j) & 1 for j in range(width)] for w in words]
    return tuple(sum(bit << i for i, bit in enumerate(column)) for column in zip(*rows))


def cyclic_naive(h_rows):
    """Whether rotating every word of ker H by one position gives ker H
    back, with ker H enumerated word by word."""
    n = len(h_rows[0])
    kernel = {
        w for w in product((0, 1), repeat=n) if all(sum(map(and_, row, w)) % 2 == 0 for row in h_rows)
    }
    return {w[-1:] + w[:-1] for w in kernel} == kernel


def cyclic_row_space_naive(h_rows):
    """Whether rotating every word of H's row space by one position gives
    the row space back, with the row space enumerated word by word: the
    same answer as :func:`cyclic_naive`, since ker H is cyclic exactly when
    its dual, the row space, is. It lists 2^rows words, not 2^n."""
    columns = list(zip(*h_rows))
    space = {
        tuple(sum(map(and_, column, pick)) % 2 for column in columns) for pick in product((0, 1), repeat=len(h_rows))
    }
    return {w[-1:] + w[:-1] for w in space} == space
