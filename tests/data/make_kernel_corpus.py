"""Record the kernel-regression corpus from the checkout this script sits in.

The corpus pins down, byte for byte, what the series operations return:
``inv`` (division and negative powers), ``root`` (``root(x, d)`` and
``p/q`` powers) and integer powers, on seeded ``eval_hyper`` inputs.  Each
case records ``str``, ``terms`` and ``order_bound`` of the result, or the
exception type and message.  ``tests/test_kernel_regression.py`` replays
it against the current code.

Usage (from the repository root)::

    python tests/data/make_kernel_corpus.py            # writes kernel_corpus.json
    python tests/data/make_kernel_corpus.py --src other/checkout/src --out /tmp/c.json

The corpus is recorded from a trusted revision of the library; regenerate
it only when a change of output is intended.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
PRECISIONS = (1, 2, 3, 5, 8, 16, 32)
F = Fraction


def _exponent_text(e: Fraction) -> str:
    return str(e) if e.denominator == 1 and e >= 0 else f"({e})"


def _term_text(exponent: Fraction, coefficient: Fraction) -> str:
    if exponent == 0:
        return f"({coefficient})"
    return f"({coefficient})*eps^{_exponent_text(exponent)}"


def _sum_text(terms, tail=None) -> str:
    pieces = [_term_text(e, c) for e, c in terms]
    if tail is not None:
        pieces.append(f"O(eps^{_exponent_text(tail)})")
    return " + ".join(pieces)


def _coefficient(rng, nonzero=True) -> Fraction:
    while True:
        c = F(rng.randint(-9, 9), rng.randint(1, 5))
        if c or not nonzero:
            return c


def _base(rng, lead_coefficient=None, max_extra=3, tail_chance=0.3, leads=None):
    """Text of a series ``c*eps^q + ...`` with an optional ``O(eps^s)`` tail."""
    lead = rng.choice(leads or (F(0), F(0), F(1), F(-1), F(1, 2), F(-2, 3), F(2)))
    terms = [(lead, lead_coefficient if lead_coefficient is not None else _coefficient(rng))]
    exponent = lead
    for _ in range(rng.randint(1, max_extra)):
        exponent += rng.choice((F(1, 3), F(1, 2), F(1), F(3, 2), F(2), F(5, 4)))
        terms.append((exponent, _coefficient(rng)))
    tail = None
    if rng.random() < tail_chance:
        tail = exponent + rng.choice((F(1, 2), F(1), F(3)))
    return _sum_text(terms, tail)


def cases(seed: int = 2017):
    """The corpus inputs: (expression, precision, integer power or None)."""
    rng = random.Random(seed)
    out = []

    def add(expr, power=None):
        out.append((expr, rng.choice(PRECISIONS), power))

    for _ in range(60):  # inverses
        add(f"1/({_base(rng)})")
    for _ in range(60):  # roots of degree 2..5
        degree = rng.randint(2, 5)
        pick = rng.random()
        if pick < 0.7:
            lead = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) ** degree
        elif pick < 0.85:
            lead = _coefficient(rng)  # usually not an exact power
        else:
            lead = -F(rng.randint(1, 3)) ** degree  # negative: even degrees refuse
        add(f"root({_base(rng, lead)}, {degree})")
    for _ in range(70):  # powers 0..30
        n = rng.randint(0, 30)
        add(f"({_base(rng, max_extra=2 if n > 12 else 3, tail_chance=0.4)})^{n}")
    for _ in range(25):  # negative integer exponents
        add(f"({_base(rng, max_extra=2)})^-{rng.randint(1, 6)}")
    for _ in range(25):  # p/q exponents
        q = rng.randint(2, 4)
        p = rng.choice([k for k in range(-5, 6) if k and k % q])
        lead = F(rng.choice((1, 2, 3)), rng.choice((1, 2))) ** q
        add(f"({_base(rng, lead, max_extra=2)})^({p}/{q})")
    for _ in range(20):  # direct negative powers: HyperReal.__pow__ through inv()
        add(_base(rng, max_extra=2), power=-rng.randint(1, 5))
    for _ in range(20):  # mixed expressions
        a, b = _base(rng, max_extra=2), _base(rng, F(4), max_extra=2, leads=(F(0),))
        add(f"({a})^{rng.randint(1, 5)} / ({b}) + root({b}, 2) * w")
    unresolved = [
        "O(eps^2)^3", "O(eps^(1/2))^5", "O(eps^(-1))^2", "O(eps)^0", "1/O(eps^3)",
        "O(eps^2)^-2", "root(O(eps^3), 2)", "O(eps)^(1/2)", "(eps - eps + O(eps^2))^4",
        "1/(1 + eps - 1 - eps + O(eps))", "root(1 + eps - 1 - eps + O(eps^2), 3)",
        "(eps + O(eps^2) - eps)^3",
    ]
    exact_zero = [
        "(eps - eps)^0", "(eps - eps)^1", "(eps - eps)^3", "(eps - eps)^-2",
        "1/(eps - eps)", "root(eps - eps, 3)", "(eps - eps)^(1/2)", "(eps - eps)^(-1/3)",
        "0^5", "0^-1",
    ]
    monomials = [
        "(3*eps^(1/2))^5", "1/(2*w)", "root(8*eps^3, 3)", "root(-8*eps^3, 3)",
        "root(-4*eps, 2)", "root(2*eps, 2)", "(eps^(1/3))^-4", "(9*w)^(3/2)",
    ]
    for expr in unresolved + exact_zero + monomials:
        add(expr)
    for expr, power in (("O(eps^2)", -3), ("eps - eps", -1), ("eps - eps", 0), ("O(eps)", 0)):
        add(expr, power)
    out.append(("(1+eps)^600", 16, None))
    out.append(("(eps^(1/1000) + eps^1000)^7", 16, None))
    return out


def record(expr: str, precision: int, power):
    from hyperreal import eval_hyper
    from hyperreal.errors import HyperrealError

    entry = {"expr": expr, "precision": precision, "power": power}
    try:
        value = eval_hyper(expr, precision=precision)
        if power is not None:
            value = value**power
    except HyperrealError as exc:
        entry["error"] = [type(exc).__name__, str(exc)]
        return entry
    entry["str"] = str(value)
    entry["terms"] = [[str(e), str(c)] for e, c in value.terms]
    entry["order_bound"] = None if value.order_bound is None else str(value.order_bound)
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=HERE.parents[1] / "src")
    parser.add_argument("--out", type=Path, default=HERE / "kernel_corpus.json")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    corpus = [record(*case) for case in cases()]
    args.out.write_text("[\n" + ",\n".join(json.dumps(entry) for entry in corpus) + "\n]\n")
    print(f"{len(corpus)} cases -> {args.out}")


if __name__ == "__main__":
    main()
