"""Reference answers computed with plain ``Fraction`` arithmetic.

Nothing here imports the library under test.  Polynomials are lists of
``Fraction`` coefficients in ascending powers.  Series in ``eps`` are
``Series`` values: exact coefficients of every exponent below ``upto``
(``None`` means the series is finite and exact).  Inverses and roots use
the power-series recurrences, not the library's geometric and binomial
sums, so agreement between the two is evidence and not a tautology.
"""

from __future__ import annotations

import math
from fractions import Fraction

F = Fraction

# ---------------------------------------------------------------------------
# Polynomials


def pstrip(p):
    p = [F(c) for c in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def padd(a, b):
    n = max(len(a), len(b))
    return pstrip((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def pneg(a):
    return [-c for c in a]


def psub(a, b):
    return padd(a, pneg(b))


def pmul(a, b):
    if not a or not b:
        return []
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return pstrip(out)


def peval(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p):
    return pstrip(k * c for k, c in enumerate(p) if k)


def pdivmod(a, b):
    a = list(a)
    q = [F(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        shift = len(a) - len(b)
        factor = a[-1] / b[-1]
        q[shift] = factor
        for i, c in enumerate(b):
            a[shift + i] -= factor * c
        a = pstrip(a[:-1])
    return pstrip(q), pstrip(a)


def pgcd(a, b):
    while b:
        a, b = b, pdivmod(a, b)[1]
    return [c / a[-1] for c in a]


def root_multiplicity(p, c):
    """How often (x - c) divides the nonzero polynomial p."""
    m = 0
    while p and peval(p, c) == 0:
        p = pdivmod(p, [-F(c), F(1)])[0]
        m += 1
    return m, p


def cauchy_bound(p):
    """An integer above every real root of p."""
    if len(p) <= 1:
        return 1
    return int(1 + max(abs(c) for c in p[:-1]) / abs(p[-1])) + 1


def sign(x):
    return (x > 0) - (x < 0)


# ---------------------------------------------------------------------------
# Rational functions of one variable (the analysis workload)


def derivative(num, den, c, wrap):
    """Derivative of f = g, |g| or root(g^2, 2) at c, where g = num/den.

    Returns a Fraction, or the string "non-differentiable".
    """
    qc = peval(den, c)
    if qc == 0:
        return "non-differentiable"  # f(c) itself is undefined
    g = peval(num, c) / qc
    dg = (peval(pderiv(num), c) * qc - peval(num, c) * peval(pderiv(den), c)) / (qc * qc)
    if wrap == "none":
        return dg
    if g != 0:
        return sign(g) * dg
    m, _ = root_multiplicity(num, c)
    return F(0) if m >= 2 else "non-differentiable"


def _local(num, den, c):
    """(e, A): g(x) ~ A * (x - c)^e near c."""
    mp, rest_p = root_multiplicity(num, c)
    mq, rest_q = root_multiplicity(den, c)
    return mp - mq, peval(rest_p, c) / peval(rest_q, c)


def limit_at(num, den, c, wrap):
    """Two-sided limit at a rational point: ("finite", v) | ("plus-infinity",) | ..."""
    e, a = _local(num, den, c)
    if e > 0:
        return ("finite", F(0))
    if e == 0:
        return ("finite", abs(a) if wrap != "none" else a)
    right = sign(a)
    left = right * (-1) ** (-e)
    if wrap != "none":
        left = right = 1
    if left != right:
        return ("no-limit",)
    return ("plus-infinity",) if right > 0 else ("minus-infinity",)


def limit_inf(num, den, direction, wrap):
    """Limit at +inf (direction 1) or -inf (direction -1)."""
    k = (len(num) - 1) - (len(den) - 1)
    ratio = num[-1] / den[-1]
    if k < 0:
        return ("finite", F(0))
    if k == 0:
        return ("finite", abs(ratio) if wrap != "none" else ratio)
    s = sign(ratio) * (direction**k)
    if wrap != "none":
        s = 1
    return ("plus-infinity",) if s > 0 else ("minus-infinity",)


def continuous(den, c):
    return peval(den, c) != 0


def seq_compare(n1, d1, n2, d2):
    diff = psub(pmul(n1, d2), pmul(n2, d1))
    if not diff:
        return "equal"
    s = sign(diff[-1]) * sign(d1[-1]) * sign(d2[-1])
    return "greater" if s > 0 else "less"


_RELATIONS = {
    "eq": lambda a, b: a == b,
    "ne": lambda a, b: a != b,
    "le": lambda a, b: a <= b,
    "lt": lambda a, b: a < b,
    "ge": lambda a, b: a >= b,
    "gt": lambda a, b: a > b,
}


def agreement_ok(n1, d1, n2, d2, relation, verdict, witness):
    """Check an agreement answer: right verdict, and true from the witness on.

    The sequences are taken in lowest terms, as the library documents.  Past
    the largest real root of the numerators, denominators and their cross
    difference every sign is constant, so checking integers up to that bound
    covers every index from the witness onward.
    """
    g = pgcd(n1, d1) if n1 else [F(1)]
    n1, d1 = pdivmod(n1, g)[0], pdivmod(d1, g)[0]
    g = pgcd(n2, d2) if n2 else [F(1)]
    n2, d2 = pdivmod(n2, g)[0], pdivmod(d2, g)[0]
    order = seq_compare(n1, d1, n2, d2)
    eventually = _RELATIONS[relation](
        {"less": -1, "equal": 0, "greater": 1}[order], 0
    )
    if verdict != ("cofinite" if eventually else "finite"):
        return False
    diff = psub(pmul(n1, d2), pmul(n2, d1))
    top = max(cauchy_bound(p) for p in (d1, d2, diff if diff else [F(1)])) + 1
    for n in range(max(1, witness), top + 1):
        q1, q2 = peval(d1, n), peval(d2, n)
        if q1 == 0 or q2 == 0:
            return False
        if _RELATIONS[relation](peval(n1, n) / q1, peval(n2, n) / q2) != eventually:
            return False
    return True


def seq_limit(num, den):
    return limit_inf(num, den, 1, "none")


# ---------------------------------------------------------------------------
# Series in eps with rational exponents


class Series:
    """Exact coefficients of eps^e for every e < upto (upto None: finite)."""

    __slots__ = ("terms", "upto")

    def __init__(self, terms, upto=None):
        self.terms = {F(e): F(c) for e, c in terms.items() if c != 0 and (upto is None or e < upto)}
        self.upto = None if upto is None else F(upto)

    @property
    def lead(self):
        return min(self.terms) if self.terms else self.upto

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Series(out, _min(self.upto, other.upto))

    def __neg__(self):
        return Series({e: -c for e, c in self.terms.items()}, self.upto)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        upto = _min(_shift(self.upto, other.lead), _shift(other.upto, self.lead))
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if upto is None or e < upto:
                    out[e] = out.get(e, 0) + c1 * c2
        return Series(out, upto)


def _min(a, b):
    return b if a is None else a if b is None else min(a, b)


def _shift(bound, offset):
    return None if bound is None or offset is None else bound + offset


def const(c):
    return Series({F(0): F(c)})


def monomial(c, e):
    return Series({F(e): F(c)})


def _lattice(terms):
    """(d, lead exponent, coefficients on the grid lead + k/d)."""
    d = math.lcm(*(e.denominator for e in terms))
    lead = min(terms)
    coeffs = {}
    for e, c in terms.items():
        coeffs[int((e - lead) * d)] = c
    return d, lead, coeffs


def inverse(x: Series, upto) -> Series:
    """1/x on every exponent below ``upto`` (x exact), by the recurrence
    q_0 = 1/p_0, q_n = -(1/p_0) * sum_{i=1..n} p_i q_{n-i}."""
    if x.upto is not None:
        raise ValueError("reference inverse takes an exact series")
    d, lead, p = _lattice(x.terms)
    count = max(0, math.ceil((F(upto) + lead) * d))
    q = []
    for n in range(count):
        if n == 0:
            q.append(1 / p[0])
            continue
        acc = sum((p[i] * q[n - i] for i in range(1, n + 1) if i in p), F(0))
        q.append(-acc / p[0])
    return Series({-lead + F(n, d): c for n, c in enumerate(q)}, upto)


def rational_root(value: Fraction, degree: int) -> Fraction:
    s = -1 if value < 0 else 1
    v = abs(value)
    p = round(v.numerator ** (1 / degree))
    q = round(v.denominator ** (1 / degree))
    for cand_p in (p - 1, p, p + 1):
        for cand_q in (q - 1, q, q + 1):
            if cand_q > 0 and F(cand_p, cand_q) ** degree == v:
                return s * F(cand_p, cand_q)
    raise ValueError(f"{value} is not an exact {degree}-th power")


def root(x: Series, degree: int, upto) -> Series:
    """x^(1/degree) below ``upto`` (x exact) by the J.C.P. Miller recurrence
    r_n = 1/(n p_0) * sum_{k=1..n} ((a+1)k - n) p_k r_{n-k}, a = 1/degree."""
    if x.upto is not None:
        raise ValueError("reference root takes an exact series")
    d, lead, p = _lattice(x.terms)
    a = F(1, degree)
    base = lead / degree
    count = max(0, math.ceil((F(upto) - base) * d))
    r = []
    for n in range(count):
        if n == 0:
            r.append(rational_root(p[0], degree))
            continue
        acc = sum(((a + 1) * k - n) * p[k] * r[n - k] for k in range(1, n + 1) if k in p)
        r.append(acc / (n * p[0]))
    return Series({base + F(n, d): c for n, c in enumerate(r)}, upto)


def binomial_power(a, b, n) -> Series:
    """(a + b*eps)^n by the binomial theorem."""
    return Series({F(k): math.comb(n, k) * F(a) ** (n - k) * F(b) ** k for k in range(n + 1)})


def matches(value, expected_at, min_bound=None) -> bool:
    """Check a library value (``terms``, ``order_bound``) against the reference.

    ``expected_at(upto)`` returns the reference Series exact below ``upto``.
    Every term the value reports below its bound must equal the reference,
    and a truncated value must keep every exponent below ``min_bound`` (the
    precision the operation promises).  An exact value must equal the
    reference outright.
    """
    terms = dict(value.terms)
    bound = value.order_bound
    if bound is None:
        top = max(terms, default=F(0)) + 8
        ref = expected_at(top)
        return ref.terms == {e: c for e, c in terms.items() if e < top}
    if min_bound is not None and bound < min_bound:
        return False
    return expected_at(bound).terms == terms


# ---------------------------------------------------------------------------
# Finite filters


def principal(size, i):
    return sorted(_mask_list(s) for s in range(1 << size) if s >> i & 1)


def generated_filter(size, seed_sets):
    """Supersets of the intersection of the seed (and the whole set)."""
    core = (1 << size) - 1
    for s in seed_sets:
        m = 0
        for x in s:
            m |= 1 << x
        core &= m
    return sorted(_mask_list(s) for s in range(1 << size) if s & core == core)


def classify_family(size, sets):
    full = (1 << size) - 1
    members = set()
    for s in sets:
        m = 0
        for x in s:
            m |= 1 << x
        members.add(m)
    subsets = range(1 << size)
    is_filter = bool(members) and all(a & b in members for a in members for b in members)
    is_filter = is_filter and all(s in members for a in members for s in subsets if s & a == a)
    proper = 0 not in members
    dichotomy = all(s in members or full ^ s in members for s in subsets)
    generator = next(
        (i for i in range(size) if members == {s for s in subsets if s >> i & 1}), None
    )
    return {
        "is_filter": is_filter,
        "is_proper": proper,
        "is_ultrafilter": is_filter and proper and dichotomy,
        "principal_generator": generator,
    }


def _mask_list(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


# ---------------------------------------------------------------------------
# Reading the canonical text of an element (CLI output)


def read_text(text: str):
    """Parse ``1/2 - 1/4*eps + O(eps^4)`` into (terms dict, bound or None)."""
    text = text.strip()
    if text == "0":
        return {}, None
    pieces = []
    sign_ = 1
    if text.startswith("-"):
        sign_, text = -1, text[1:]
    for token in text.replace(" - ", " + -").split(" + "):
        if token.startswith("-"):
            pieces.append((-1, token[1:]))
        else:
            pieces.append((sign_, token))
        sign_ = 1
    terms, bound = {}, None
    for s, body in pieces:
        if body.startswith("O("):
            bound = _power(body[2:-1])
            continue
        if "eps" in body:
            coeff, _, power = body.rpartition("*") if "*" in body else ("1", "", body)
            terms[_power(power)] = s * F(coeff)
        else:
            terms[F(0)] = s * F(body)
    return terms, bound


def _power(text):
    if text == "eps":
        return F(1)
    body = text[len("eps^"):]
    return F(body.strip("()"))


class Value:
    """A parsed CLI value with the attributes ``matches`` reads."""

    def __init__(self, text):
        terms, bound = read_text(text)
        self.terms = sorted(terms.items())
        self.order_bound = bound
