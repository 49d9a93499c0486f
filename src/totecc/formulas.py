"""Closed-form total eccentricity values for the named families.

All functions work in exact integer arithmetic with explicit floors and
error outside their stated parameter ranges instead of extrapolating.
Each is contracted (and tested) to agree with brute-force BFS totals of
the corresponding constructed family.
"""

from __future__ import annotations

from .families import FamilySpec


def eps_path(n: int) -> int:
    """floor((3n^2 - 2n) / 4)."""
    if n < 1:
        raise ValueError("eps_path needs n >= 1")
    return (3 * n * n - 2 * n) // 4


def eps_cycle(n: int) -> int:
    """n * floor(n/2): n^2/2 for even n, (n^2-n)/2 for odd."""
    if n < 3:
        raise ValueError("eps_cycle needs n >= 3")
    return n * (n // 2)


def eps_star(n: int) -> int:
    """2n - 1 (true from n = 3 up; the single-edge star K_{1,1} totals 2)."""
    if n < 3:
        raise ValueError("eps_star needs n >= 3")
    return 2 * n - 1


def eps_complete(n: int) -> int:
    """n (true from n = 2 up; the one-vertex graph totals 0)."""
    if n < 2:
        raise ValueError("eps_complete needs n >= 2")
    return n


def eps_double_broom_max(n: int, k: int) -> int:
    """floor((3n^2 - k^2 - 2nk + 2(n+k)) / 4); independent of the l split.

    Valid wherever the double broom has a genuine path part (k <= n-2);
    the pendant-count extremal theorem applies it for k <= n-3 only.
    """
    if not 2 <= k <= n - 2:
        raise ValueError("eps_double_broom_max needs 2 <= k <= n-2")
    return (3 * n * n - k * k - 2 * n * k + 2 * (n + k)) // 4


def eps_c33(n: int) -> int:
    """Total eccentricity of the two-triangle dumbbell on n >= 6 vertices.

    Equals eps_path(n-2) + 2(n-3); the parity split form is
    (3/4)n^2 - (3/2)n - 2 (even) and (3/4)n^2 - (3/2)n - 9/4 (odd).
    """
    if n < 6:
        raise ValueError("eps_c33 needs n >= 6")
    if n % 2 == 0:
        return (3 * n * n - 6 * n - 8) // 4
    return (3 * n * n - 6 * n - 9) // 4


def eps_unicyclic_max(n: int) -> int:
    """floor((3n^2 - 4n - 3) / 4), the unicyclic maximum."""
    if n < 5:
        raise ValueError("eps_unicyclic_max needs n >= 5")
    return (3 * n * n - 4 * n - 3) // 4


def eps_kmn_balanced(n: int, s: int) -> int:
    """Total eccentricity of the balanced clique-with-paths graph.

    With m = n-s, q = floor(n/m) and r = n - m*q:
      r = 0:  n(2n+s) / (2m)
      r = 1:  (q/2)(3mq + m + 2)
      r >= 2: (2r(2q+1) + q(3q+1)m) / 2
    Every branch divides exactly; a remainder would mean the formula and
    construction disagree, so it raises RuntimeError.
    """
    if not 0 <= s <= n - 2:
        raise ValueError("eps_kmn_balanced needs 0 <= s <= n-2")
    m = n - s
    q, r = divmod(n, m)
    if r == 0:
        num = n * (2 * n + s)
        den = 2 * m
    elif r == 1:
        num = q * (3 * m * q + m + 2)
        den = 2
    else:
        num = 2 * r * (2 * q + 1) + q * (3 * q + 1) * m
        den = 2
    value, rem = divmod(num, den)
    if rem:
        raise RuntimeError(f"non-integer branch value for (n={n}, s={s})")
    return value


def eps_dumbbell_shared(m1: int, m2: int) -> int:
    """Total eccentricity of two cycles sharing one vertex (n = m1+m2-1).

    Requires m1 >= m2 >= 3; the four parity cases are asymmetric in
    (m1, m2), so callers must order the arguments (see
    eps_dumbbell_shared_normalized for the order-insensitive wrapper).
    """
    if m2 < 3:
        raise ValueError("eps_dumbbell_shared needs m1 >= m2 >= 3")
    if m1 < m2:
        raise ValueError("eps_dumbbell_shared needs m1 >= m2 (swap the arguments)")
    base = m1 * m1 + m2 * m2 + m1 * m2
    if m1 % 2 == 0 and m2 % 2 == 0:
        num = base - m1
    elif m1 % 2 == 0:
        num = base - m1 - m2
    elif m2 % 2 == 0:
        num = base - 2 * m1 + 1
    else:
        num = base - 2 * m1 - m2
    value, rem = divmod(num, 2)
    if rem:
        raise RuntimeError(f"non-integer dumbbell value for ({m1}, {m2})")
    return value


def eps_dumbbell_shared_normalized(m1: int, m2: int) -> int:
    """Order-insensitive wrapper around eps_dumbbell_shared."""
    return eps_dumbbell_shared(max(m1, m2), min(m1, m2))


def eps_tadpole_p(n: int, g: int) -> int:
    """ng/2 + n - g + 1 for even g; n(g-1)/2 + n - g + 2 for odd g."""
    if not 3 <= g <= n - 1:
        raise ValueError("eps_tadpole_p needs 3 <= g <= n-1")
    if g % 2 == 0:
        return n * g // 2 + n - g + 1
    return n * (g - 1) // 2 + n - g + 2


def eps_lollipop_max(n: int) -> int:
    """Total eccentricity of the (n-1)-cycle with one pendant vertex.

    n(n-2)/2 + 3 for even n, n(n-1)/2 + 2 for odd n; consistent with
    eps_tadpole_p(n, n-1) since the two constructions coincide at g = n-1.
    """
    if n < 4:
        raise ValueError("eps_lollipop_max needs n >= 4")
    if n % 2 == 0:
        return n * (n - 2) // 2 + 3
    return n * (n - 1) // 2 + 2


def formula_for_family(spec: FamilySpec) -> int | None:
    """The paper-backed closed form for a family instance, if one exists.

    Families whose closed form is out of scope (balanced/double spiders,
    general path-form tadpoles, unbalanced clique-with-paths) return None.
    """
    tag, p = spec.tag, spec.params
    if tag == "path":
        return eps_path(p[0])
    if tag == "cycle":
        return eps_cycle(p[0])
    if tag == "complete":
        return eps_complete(p[0]) if p[0] >= 2 else None
    if tag == "star":
        return eps_star(p[0]) if p[0] >= 3 else None
    if tag == "double_broom":
        l, m, d = p
        n, k = l + m + d, l + m
        if 2 <= k <= n - 2:
            return eps_double_broom_max(n, k)
        return None
    if tag == "tadpole_l":
        n, g = p
        if g == 3 and n >= 5:
            return eps_unicyclic_max(n)
        if g == n - 1 and n >= 4:
            return eps_lollipop_max(n)
        return None
    if tag == "tadpole_p":
        return eps_tadpole_p(*p)
    if tag == "dumbbell":
        m1, m2, n = p
        if n == m1 + m2 - 1:
            return eps_dumbbell_shared_normalized(m1, m2)
        if (m1, m2) == (3, 3) and n >= 6:
            return eps_c33(n)
        return None
    if tag == "complete_with_paths":
        m, lengths = p[0], p[1:]
        if max(lengths) - min(lengths) <= 1:
            n = sum(lengths)
            return eps_kmn_balanced(n, n - m)
        return None
    if tag == "complete_with_pendants":
        n, k = p
        return n if k == 0 else 2 * n - 1
    return None
