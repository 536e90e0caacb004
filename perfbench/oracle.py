"""Closed-form Ext between simple modules of self-injective Nakayama algebras.

The algebra is the cyclic quiver on vertices 0..n-1 with arrows i -> i+1
(mod n), bound by all paths of length L >= 2.  It is monomial, so the
minimal projective resolution of a simple S_i is combinatorial
(Green-Happel-Zacharia, Illinois J. Math. 1985): the syzygies alternate
between simples and uniserials of length L - 1, and the k-th term is P_v
with v = i + floor(k/2) * L + (k mod 2) (mod n).  Hence

    dim Ext^k(S_i, S_j) = 1  iff  j = i + floor(k/2) * L + (k mod 2)  (mod n)

and 0 otherwise.  Nothing here imports quiverhom, so the benchmark checks
the Ext tables against a formula that shares no code with them.
"""


def nakayama_arrows(n: int) -> list[tuple[str, str, str]]:
    """Arrow triples (name, source, target) of the cyclic quiver on n vertices."""
    return [(f"a{i}", str(i), str((i + 1) % n)) for i in range(n)]


def nakayama_ext_simples(n: int, L: int, i: int, j: int, cutoff: int) -> tuple[int, ...]:
    """dim Ext^k(S_i, S_j) for k = 0..cutoff."""
    if n < 1 or L < 2:
        raise ValueError("need n >= 1 vertices and relation length L >= 2")
    return tuple(
        1 if (j - i - (k // 2) * L - (k % 2)) % n == 0 else 0 for k in range(cutoff + 1)
    )
