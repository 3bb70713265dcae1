"""Deformation walkthrough: star product, rank-2 lattice twist, t-shift.

Four short experiments, all exact:
  1. the truncated star product on Weyl symbols, with the order-hbar part
     of the star commutator checked against a Poisson bracket;
  2. the rank-2 lattice deformation table on small exponents;
  3. the shifted differentiation rule and its first-order deviation;
  4. the Maurer-Cartan residual of the truncated star cochains on seeded
     random symbol triples.

Usage: python scripts/deformation_demo.py [--order N] [--seed S]
"""

import argparse
import random

from expweyl.algebra import WeylAlgebra
from expweyl.deformation import (
    AntisymMatrix,
    gr_hbar_coefficient,
    mc_residual,
    poisson_std,
    rank2_commutator,
    star_cochain,
    symbol_star,
    t_shift_deform,
)
from expweyl.expr import format_element, format_gr_element
from expweyl.grading import full_symbol
from expweyl.sampling import random_symbol


def star_section(order):
    A = WeylAlgebra(n=1, rank=1, p=(2,), t=((0,),))
    pairs = [(A.D(1), A.x(1)), (A.D(1, 2), A.x(1, 2)), (A.x(1) * A.D(1), A.D(1))]
    print(f"star products at order {order}")
    for P, Q in pairs:
        f, g = full_symbol(P), full_symbol(Q)
        fg = symbol_star(f, g, order)
        print(f"  {format_gr_element(f)} * {format_gr_element(g)} = {format_gr_element(fg)}")
        comm = symbol_star(f, g, order) - symbol_star(g, f, order)
        first = gr_hbar_coefficient(comm, 1, A)
        bracket = poisson_std(g, f)
        status = "matches" if first == bracket else "DIFFERS FROM"
        print(f"    hbar part of the star commutator {status} the Poisson bracket")


def rank2_section():
    A = WeylAlgebra(n=1, rank=2, p=(2,), t=((0, 0),))
    c = AntisymMatrix(((0, 1), (-1, 0)))
    print("rank-2 twist, c_12 = 1: commutators [x^a, x^b]")
    for alpha, beta in [((1, 0), (0, 1)), ((2, 0), (0, 1)), ((1, 1), (1, -1))]:
        comm = rank2_commutator(A, c, alpha, beta)
        print(f"  a={alpha} b={beta}: {format_gr_element(comm)}")


def tshift_section(order):
    A = WeylAlgebra(n=1, rank=1, p=(2,), t=((1,),))
    rep = t_shift_deform(A, order)
    print(f"t-shift rule at order {order} (p=2, t=1)")
    print(f"  classical part: {format_element(rep.classical)}")
    print(f"  order-hbar deviation: {format_element(rep.first_order)}")


def mc_section(seed, triples):
    A = WeylAlgebra(n=1, rank=1, p=(2,), t=((0,),))
    rng = random.Random(seed)
    m1, m2 = star_cochain(A, 1), star_cochain(A, 2)
    worst = None
    for _ in range(triples):
        f, g, h = (random_symbol(A, rng) for _ in range(3))
        res = mc_residual(m1, m2, f, g, h)
        if not res.is_zero:
            worst = res
            break
    if worst is None:
        print(f"maurer-cartan residual: 0 on {triples} random triples")
    else:
        print(f"maurer-cartan residual NONZERO: {format_gr_element(worst)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--triples", type=int, default=10)
    args = ap.parse_args()
    star_section(args.order)
    rank2_section()
    tshift_section(min(args.order, 2))
    mc_section(args.seed, args.triples)


if __name__ == "__main__":
    main()
