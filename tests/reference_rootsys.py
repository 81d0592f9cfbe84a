"""The reflection closure that ``rootsys._construct`` replaced, kept verbatim as a
stdlib-only reference: tier-1 checks the level-by-level build against it, and so
does ``tools/check_cli.py`` at rank 32, where pytest is not installed."""

from ghckit.errors import InternalError
from ghckit.rootsys import RootSystem, _dot, _simple_roots, root_count


def reference_construct(series: str, rank: int) -> RootSystem:
    # epsilon-coordinates, doubled so that they are integers; the Cartan entry
    # <a_i, a_j^vee> = 2(a_i, a_j)/(a_j, a_j) is the same ratio on doubled roots
    doubled, dim = _simple_roots(series, rank)
    cartan = tuple(tuple(2 * _dot(a, b) // _dot(b, b) for b in doubled) for a in doubled)
    # reflection closure on integer simple-root coordinates c:
    # s_i(b) = b - <b, a_i^vee> a_i, with <b, a_i^vee> = sum_j c_j cartan[j][i]
    units = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    seen = set(units)
    frontier = units
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                p = sum(cj * row[i] for cj, row in zip(c, cartan))
                if p:
                    refl = c[:i] + (c[i] - p,) + c[i + 1:]
                    if refl not in seen:
                        seen.add(refl)
                        nxt.append(refl)
        frontier = nxt

    # sorting on doubled epsilon-coordinates orders roots as their Fraction coordinates do
    positive = sorted(
        (sum(c), tuple(sum(cj * a[k] for cj, a in zip(c, doubled)) for k in range(dim)), c)
        for c in seen
        if min(c) >= 0
    )
    # the positive roots, then their negatives in the same order
    _, doubled_roots, coords = zip(*positive)
    doubled_roots += tuple(tuple(-x for x in a) for a in doubled_roots)
    coords += tuple(tuple(-x for x in c) for c in coords)

    count = root_count(series, rank)
    if len(doubled_roots) != count:
        raise InternalError(f"{series}{rank}: generated {len(doubled_roots)} roots, expected {count}")
    return RootSystem(series, rank, dim, cartan, doubled_roots, coords, tuple(doubled))
