"""Walk through root systems, Weyl groups, and invariant families.

Builds a few classical and exceptional systems and reads their fundamental
degrees off the root heights.  It enumerates each Weyl group by reflection
closure, and checks |W| = m_1 * ... * m_n both against that enumeration and
against the orbit-stabilizer count of `stabilizer_chain_order`.  E7 and E8
are too large to enumerate, so for them the two derivations of |W| are
compared alone.  Last, it constructs an independent invariant family for G2.
"""

import math

from chevfiber import build_root_system, invariant_family, weyl_group
from chevfiber.rootsys import stabilizer_chain_order


def main():
    for t, n in (("A", 2), ("B", 3), ("G", 2), ("BC", 2), ("F", 4), ("E", 7), ("E", 8)):
        rs = build_root_system(t, n)
        order = stabilizer_chain_order(rs)
        product = math.prod(rs.degrees)
        print(
            "%s%-2d  roots %-3d  |W| %-9d  degrees %-34s  product %d"
            % (t, n, len(rs.roots), order, list(rs.degrees), product)
        )
        assert order == product
        if t != "E":
            assert len(weyl_group(rs)) == order

    print()
    print("invariant family for G2:")
    fam = invariant_family(build_root_system("G", 2))
    for degree, poly in zip(fam.degrees, fam.polys):
        print(f"  U[{degree}] = {poly.to_text()}")
    point, value = fam.certificate
    print(f"  independence: det J = {value} at {tuple(str(c) for c in point)}")


if __name__ == "__main__":
    main()
