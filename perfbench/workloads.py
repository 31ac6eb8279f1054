"""Seeded inputs for the three workloads, and the check of every answer.

Each workload is an endless stream of ``Op`` values built from the seed
alone; the library sees only the generated text and numbers.  Streams are
stratified in rounds (every round holds the same mix of operation kinds and
size classes, in a seeded order) so that runs with different seeds do the
same amount of work per op on average.

An op's ``run`` is the timed call into the library.  Its ``check`` compares
the answer with ``oracle``, which never calls the library.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracle

F = Fraction


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    text: str = ""


# ---------------------------------------------------------------------------
# Text helpers


def rat_text(x: Fraction) -> str:
    return str(F(x))


def poly_text(p, var="x") -> str:
    """Render ascending coefficients as ``3/2*x^3 - x + 1/4``."""
    pieces = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = abs(c)
        power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        if not power:
            body = rat_text(mag)
        elif mag == 1:
            body = power
        else:
            body = f"{rat_text(mag)}*{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces) if pieces else "0"


def small_rat(rng, allow_zero=False) -> Fraction:
    if allow_zero and rng.random() < 0.3:
        return F(0)
    return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3)))


# Series costs grow with the size of the coefficients, so the series
# workload draws them all from one size class.
_MID = tuple(F(p, q) for p in (2, 3, 4, 5) for q in (2, 3, 4, 5) if p != q and F(p, q).denominator == q)


def mid_rat(rng) -> Fraction:
    return rng.choice((1, -1)) * rng.choice(_MID)


def random_poly(rng, degree):
    return [small_rat(rng, allow_zero=True) for _ in range(degree)] + [small_rat(rng)]


def series_text(terms) -> str:
    """Render {exponent: coeff} as input text, e.g. ``2 + 3*eps^(1/2) - eps``."""
    pieces = []
    for e, c in sorted(terms.items()):
        mag = abs(c)
        if e == 0:
            body = rat_text(mag)
        else:
            power = "eps" if e == 1 else f"eps^{e}" if e.denominator == 1 else f"eps^({e})"
            body = power if mag == 1 else f"{rat_text(mag)}*{power}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(("+ " if c > 0 else "- ") + body)
    return " ".join(pieces)


# ---------------------------------------------------------------------------
# analysis: rational functions queried at several points


@dataclass
class Function:
    num: list
    den: list
    wrap: str  # none | abs | root
    special: Fraction  # a root of the denominator, or an ordinary point

    @property
    def rat_text(self) -> str:
        return f"({poly_text(self.num)})/({poly_text(self.den)})"

    @property
    def text(self) -> str:
        if self.wrap == "abs":
            return f"abs({self.rat_text})"
        if self.wrap == "root":
            return f"root(({self.rat_text})^2, 2)"
        return self.rat_text


# (shape, wrap, degree of the free factor of the numerator, of the denominator).
# Every round uses each row once, so every seed gets the same mix of shapes
# and degrees; the seed picks coefficients, singular points and query points.
FUNCTION_GRID = (
    ("removable", "none", 1, 1),
    ("removable", "none", 0, 2),
    ("removable", "abs", 2, 1),
    ("removable", "root", 1, 0),
    ("pole", "none", 2, 1),
    ("pole", "none", 3, 0),
    ("pole", "abs", 1, 2),
    ("pole", "root", 0, 1),
    ("plain", "none", 4, 1),
    ("plain", "none", 2, 2),
    ("plain", "abs", 3, 1),
    ("plain", "root", 1, 2),
)


def _function(rng, shape, wrap, deg_num, deg_den) -> Function:
    """g = num/den; "removable" and "pole" put a factor (x - r) in den too."""
    r = F(rng.randint(-3, 3), rng.choice((1, 2)))
    factor = [-r, F(1)]
    num = random_poly(rng, deg_num)
    den = random_poly(rng, deg_den)
    if shape == "removable":
        num = oracle.pmul(factor, num)
    if shape != "plain":
        den = oracle.pmul(factor, den)
    return Function(num, den, wrap, r)


def _point(rng) -> Fraction:
    return F(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def _limit_answer(result):
    if result.kind == "finite":
        return ("finite", result.value)
    return (result.kind,)


def analysis_ops(api, rng, fn: Function, partner: Function):
    """The seven queries made of one function."""
    text, rat = fn.text, fn.rat_text
    c1, c2 = _point(rng), _point(rng)
    at = rng.choice((fn.special, _point(rng)))
    inf = rng.choice(("+inf", "-inf"))

    def derivative_at(c):
        def run():
            try:
                return api.derivative(text, c)
            except api.errors.NonDifferentiableError:
                return "non-differentiable"

        expected = oracle.derivative(fn.num, fn.den, c, fn.wrap)
        return Op("derivative", run, lambda got: got == expected, text)

    expected_limit = oracle.limit_at(fn.num, fn.den, fn.special, fn.wrap)
    expected_inf = oracle.limit_inf(fn.num, fn.den, 1 if inf == "+inf" else -1, fn.wrap)
    expected_seq = oracle.seq_limit(fn.num, fn.den)
    continuous = oracle.continuous(fn.den, at)
    ops = [
        derivative_at(c1),
        derivative_at(c2),
        Op(
            "limit_fun",
            lambda: _limit_answer(api.limit_fun(text, fn.special)),
            lambda got: got == expected_limit,
            text,
        ),
        Op(
            "limit_fun_inf",
            lambda: _limit_answer(api.limit_fun(text, inf)),
            lambda got: got == expected_inf,
            text,
        ),
        Op(
            "continuity_at",
            lambda: api.continuity_at(text, at),
            lambda got: got == continuous,
            text,
        ),
        Op(
            "limit_seq",
            lambda: _limit_answer(api.limit_seq(rat)),
            lambda got: got == expected_seq,
            rat,
        ),
    ]
    if rng.random() < 0.5:
        other_num, other_den = partner.num, partner.den
        other = partner.rat_text
    else:
        k = small_rat(rng)
        other_num, other_den, other = [k], [F(1)], rat_text(k)
    if rng.random() < 0.5:
        expected_order = oracle.seq_compare(fn.num, fn.den, other_num, other_den)
        ops.append(
            Op(
                "ratseq_compare",
                lambda: api.RatSeq.parse(rat).compare(api.RatSeq.parse(other)).value,
                lambda got: got == expected_order,
                rat,
            )
        )
    else:
        relation = rng.choice(("eq", "ne", "le", "lt", "ge", "gt"))
        ops.append(
            Op(
                "ratseq_agreement",
                lambda: api.RatSeq.parse(rat).agreement(api.RatSeq.parse(other), relation),
                lambda got: oracle.agreement_ok(
                    fn.num, fn.den, other_num, other_den, relation, got.verdict, got.witness
                ),
                rat,
            )
        )
    return ops


def analysis_stream(api, seed):
    """Rounds of the twelve grid functions, seven queries each, shuffled."""
    rng = random.Random(f"analysis:{seed}")
    while True:
        fns = [_function(rng, *row) for row in FUNCTION_GRID]
        ops = []
        for i, fn in enumerate(fns):
            ops += analysis_ops(api, rng, fn, fns[i - 1])
        rng.shuffle(ops)
        yield from ops


# ---------------------------------------------------------------------------
# series: long exact series, no input repeats


def _pow_op(api, rng, lo, hi):
    a, b, n = mid_rat(rng), mid_rat(rng), rng.randint(lo, hi)
    text = f"({series_text({F(0): a, F(1): b})})^{n}"
    ref = oracle.binomial_power(a, b, n)
    return Op(
        "pow",
        lambda: api.eval_hyper(text),
        lambda got: oracle.matches(got, lambda upto: ref),
        text,
    )


def _inv_op(api, rng, k, precision):
    terms = {F(0): mid_rat(rng), F(1, k): mid_rat(rng), F(2, k) if k == 1 else F(1): mid_rat(rng)}
    text = f"1/({series_text(terms)})"
    x = oracle.Series(terms)
    return Op(
        f"inv_k{k}_T{precision}",
        lambda: api.eval_hyper(text, None, precision),
        lambda got: oracle.matches(got, lambda upto: oracle.inverse(x, upto), precision),
        text,
    )


def _root_op(api, rng, degree, precision, k):
    base = abs(mid_rat(rng)) if degree % 2 == 0 else mid_rat(rng)
    terms = {F(0): base**degree, F(1, k): mid_rat(rng), F(1) if k == 2 else F(2): mid_rat(rng)}
    text = f"root({series_text(terms)}, {degree})"
    x = oracle.Series(terms)
    return Op(
        f"root_d{degree}",
        lambda: api.eval_hyper(text, None, precision),
        lambda got: oracle.matches(got, lambda upto: oracle.root(x, degree, upto), precision),
        text,
    )


def _embed_op(api, rng, degree, precision):
    den = random_poly(rng, degree)
    num = random_poly(rng, rng.randint(degree - 2, degree))
    num_s = oracle.Series({F(-k): c for k, c in enumerate(num)})
    den_s = oracle.Series({F(-k): c for k, c in enumerate(den)})
    lead = F(degree - (len(num) - 1))

    def expected(upto):
        return num_s * oracle.inverse(den_s, upto - num_s.lead)

    return Op(
        f"embed_deg{degree}",
        lambda: api.RatSeq(num, den).embed(precision),
        lambda got: oracle.matches(got, expected, lead + precision),
        f"({poly_text(num, 'n')})/({poly_text(den, 'n')})",
    )


def _entry(rng, form):
    """(text, reference factory upto -> (re Series, im Series), lead exponent)."""
    a, b, c = small_rat(rng), small_rat(rng), small_rat(rng)
    zero = oracle.Series({})
    if form == "exact":
        s = oracle.Series({F(0): a, F(2): b})
        return series_text({F(0): a, F(2): b}), lambda upto: (s, zero)
    den = oracle.Series({F(0): b, F(1): c})
    den_text = series_text({F(0): b, F(1): c})
    if form == "real":
        return f"{rat_text(a)}/({den_text})", lambda upto: (
            oracle.const(a) * oracle.inverse(den, upto),
            zero,
        )
    if form == "imag":
        return f"{rat_text(a)}*i/({den_text})", lambda upto: (
            zero,
            oracle.const(a) * oracle.inverse(den, upto),
        )
    if form == "small":
        return f"{rat_text(a)}*eps/({den_text})", lambda upto: (
            oracle.monomial(a, 1) * oracle.inverse(den, upto - 1),
            zero,
        )
    # unlimited
    return f"{rat_text(a)}*w + {rat_text(b)}", lambda upto: (
        oracle.Series({F(-1): a, F(0): b}),
        zero,
    )


def _vector_text(entries):
    return "[" + ", ".join(text for text, _ in entries) + "]"


def _inner_pair(rng, dim):
    """Two vectors of inverse and exact entries, and a check of their inner
    product (``re``/``im`` attributes or canonical texts) at precision T."""
    entries = [_entry(rng, rng.choice(("real", "imag", "exact"))) for _ in range(2 * dim)]
    left, right = entries[:dim], entries[dim:]

    def part(which):
        def at(upto):
            re, im = oracle.Series({}), oracle.Series({})
            for (_, a_at), (_, b_at) in zip(left, right):
                ar, ai = a_at(upto)
                br, bi = b_at(upto)
                # a * conj(b) = (ar + ai i)(br - bi i)
                re = re + ar * br + ai * bi
                im = im + ai * br - ar * bi
            return (re, im)[which]

        return at

    def check(re, im, precision):
        # Every entry has leading exponent 0, so the bound is at least T.
        return oracle.matches(re, part(0), F(precision)) and oracle.matches(im, part(1), F(precision))

    return _vector_text(left), _vector_text(right), check


def _inner_op(api, rng, dim, precision):
    v_text, w_text, check = _inner_pair(rng, dim)
    return Op(
        "hilbert_inner",
        lambda: api.inner(
            api.parse_hvector(v_text, precision), api.parse_hvector(w_text, precision)
        ),
        lambda got: check(got.re, got.im, precision),
        v_text + " " + w_text,
    )


_CLASS_FORMS = {
    "near-standard": ("real", "imag", "exact"),
    "infinitesimal-vector": ("small",),
    "remote": ("real", "imag", "exact", "unlimited"),
}


def _class_vector(rng, target, dim):
    """Text of a vector whose classification is ``target``."""
    forms = [rng.choice(_CLASS_FORMS[target]) for _ in range(dim)]
    if target == "remote" and "unlimited" not in forms:
        forms[rng.randrange(dim)] = "unlimited"
    if target == "near-standard" and all(f == "exact" for f in forms):
        forms[0] = "real"
    return _vector_text([_entry(rng, f) for f in forms])


def _classify_op(api, rng, target, precision):
    text = _class_vector(rng, target, 3)
    return Op(
        "hilbert_classify",
        lambda: api.vec_classify(api.parse_hvector(text, precision)).value,
        lambda got: got == target,
        text,
    )


def series_stream(api, seed):
    """Rounds of 21 ops: 5 powers, 6 inverses, 4 roots, 4 embeddings, 2 vector
    ops.  Sizes (N, k, T, degrees, dimensions) follow a fixed plan per round;
    the seed picks coefficients and the order."""
    rng = random.Random(f"series:{seed}")
    classes = itertools.cycle(_CLASS_FORMS)
    for r in itertools.count():
        t_alt = 16 if r % 2 == 0 else 32
        ops = [_pow_op(api, rng, lo, lo + 4) for lo in (20, 45, 70, 95, 116)]
        ops += [_inv_op(api, rng, k, t) for k in (1, 2, 3) for t in (16, 32)]
        ops += [_root_op(api, rng, d, t_alt, 1 + (d + r) % 2) for d in (2, 3, 4, 5)]
        ops += [_embed_op(api, rng, d, t_alt) for d in (3, 4, 5, 6)]
        ops.append(_inner_op(api, rng, 3, 16))
        ops.append(_classify_op(api, rng, next(classes), 16))
        rng.shuffle(ops)
        yield from ops


# ---------------------------------------------------------------------------
# cli: one child process per op, over all eleven subcommands


@dataclass
class CliOp:
    kind: str
    argv: list
    check: Callable[[dict], bool]  # receives the normalised answer


def _closed_text(rng):
    """A closed polynomial in eps/w with its reference terms."""
    terms = {}
    for e in rng.sample((F(-2), F(-1), F(0), F(1), F(2), F(3, 2)), rng.randint(1, 3)):
        terms[e] = small_rat(rng)
    expr = " + ".join(
        f"({rat_text(c)})*" + ("w" if e == -1 else "w^2" if e == -2 else f"eps^({e})")
        if e != 0
        else f"({rat_text(c)})"
        for e, c in terms.items()
    )
    return expr, terms


def _classification(terms) -> str:
    if not terms:
        return "zero"
    e = min(terms)
    c = terms[e]
    if e > 0:
        return "positive-infinitesimal" if c > 0 else "negative-infinitesimal"
    if e == 0:
        return "appreciable"
    return "positive-unlimited" if c > 0 else "negative-unlimited"


def _limit_payload(expected):
    kind = expected[0]
    return {"kind": kind, "value": str(expected[1]) if kind == "finite" else None}


_TRANSFER = (
    # (template, structure, flags, expected verdict, free vars, external, star text)
    ("forall {v} in N, {v} + {k} in N", "N", ["--star"], "statement", [], [],
     "forall {v} in *N, {v} + *{k} in *N"),
    ("forall {v} in R, exists {u} in R, {u} > {v} + {k}", "R", ["--direction", "forward"],
     "transferable", [], [], None),
    ("{v} + {k} in N", "N", [], "formula-not-statement", ["{v}"], [], None),
    ("forall {v} in *N, |*s({v})| <= omega", "*seq", ["--direction", "backward"],
     "not-transferable", [], ["omega"], None),
    ("forall {v} in *N, *s({v}) <= *s({v} + {k})", "*seq", ["--direction", "backward"],
     "transferable", [], [], None),
    ("exists {v} in R, |{v} - {k}| < {m}", "R", ["--star"], "statement", [], [],
     "exists {v} in *R, |{v} - *{k}| < *{m}"),
)


def _transfer_op(rng):
    template, structure, flags, verdict, free, external, star = rng.choice(_TRANSFER)
    names = rng.sample(("x", "y", "z", "t", "p", "q"), 2)
    fill = {"v": names[0], "u": names[1], "k": rng.randint(1, 9), "m": rng.randint(1, 9)}
    argv = ["transfer", template.format(**fill), "--structure", structure] + flags
    free = [f.format(**fill) for f in free]
    star = star.format(**fill) if star else None

    def check(ans):
        return (
            ans["verdict"] == verdict
            and ans["free_vars"] == free
            and ans["external_symbols"] == external
            and ans["transformed_text"] == star
        )

    return CliOp("transfer", argv, check)


def _filters_op(rng, action):
    if action in (4, 5):
        size = action

        def check(ans):
            want = [oracle.principal(size, i) for i in range(size)]
            return ans["count"] == size and sorted(ans["ultrafilters"]) == sorted(want)

        return CliOp(f"filters_enumerate_{size}", ["filters", "enumerate", "--size", str(size)], check)
    size = rng.randint(2, 4)
    sets = [sorted(rng.sample(range(size), rng.randint(0, size))) for _ in range(rng.randint(1, 4))]
    if action == "classify" and rng.random() < 0.5:
        sets = oracle.principal(size, rng.randrange(size))
    family = json.dumps(sets)
    if action == "classify":
        want = oracle.classify_family(size, sets)
        return CliOp(
            "filters_classify",
            ["filters", "classify", family, "--size", str(size)],
            lambda ans: ans == want,
        )
    want = oracle.generated_filter(size, sets)
    return CliOp(
        "filters_generate",
        ["filters", "generate", family, "--size", str(size)],
        lambda ans: ans["family"] == want,
    )


def _hilbert_op(rng, precision):
    flags = ["--precision", str(precision)]
    if rng.random() < 0.5:
        v_text, w_text, check = _inner_pair(rng, rng.randint(2, 3))
        return CliOp(
            "hilbert_inner",
            ["hilbert", v_text, w_text] + flags,
            lambda ans: check(
                oracle.Value(ans["inner"]["re"]), oracle.Value(ans["inner"]["im"]), precision
            ),
        )
    target = rng.choice(tuple(_CLASS_FORMS))
    return CliOp(
        "hilbert_classify",
        ["hilbert", _class_vector(rng, target, rng.randint(2, 3))] + flags,
        lambda ans: ans["classification"] == target,
    )


def _analysis_cli_ops(rng):
    fn = _function(rng, *rng.choice(FUNCTION_GRID))
    c = _point(rng)
    text = fn.text
    deriv = oracle.derivative(fn.num, fn.den, c, fn.wrap)
    target = rng.choice((str(fn.special), "+inf", "-inf"))
    if target == "+inf" or target == "-inf":
        limit = oracle.limit_inf(fn.num, fn.den, 1 if target == "+inf" else -1, fn.wrap)
    else:
        limit = oracle.limit_at(fn.num, fn.den, fn.special, fn.wrap)
    seq = oracle.seq_limit(fn.num, fn.den)
    cont = oracle.continuous(fn.den, fn.special)

    def diff_check(ans):
        if deriv == "non-differentiable":
            return ans["non_differentiable"] is True
        return ans["non_differentiable"] is False and ans["derivative"] == str(deriv)

    return [
        CliOp("diff", ["diff", text, f"--at={c}"], diff_check),
        CliOp(
            "limit",
            ["limit", text, f"--to={target}"],
            lambda ans: {k: ans[k] for k in ("kind", "value")} == _limit_payload(limit),
        ),
        CliOp(
            "seq-limit",
            ["seq-limit", fn.rat_text],
            lambda ans: {k: ans[k] for k in ("kind", "value")} == _limit_payload(seq),
        ),
        CliOp(
            "continuity",
            ["continuity", text, f"--at={fn.special}"],
            lambda ans: ans["continuous"] is cont,
        ),
    ]


def _closed_cli_ops(rng):
    precision = rng.randint(3, 8)
    a, b = small_rat(rng), small_rat(rng)
    if rng.random() < 0.5:
        n = rng.randint(2, 8)
        expr = f"({series_text({F(0): a, F(1): b})})^{n}"
        ref = oracle.binomial_power(a, b, n)
        eval_check = lambda ans: oracle.matches(oracle.Value(ans["value"]), lambda u: ref)
    else:
        den = oracle.Series({F(0): a, F(1): b})
        expr = f"1/({series_text({F(0): a, F(1): b})})"
        eval_check = lambda ans: oracle.matches(
            oracle.Value(ans["value"]), lambda u: oracle.inverse(den, u), F(precision)
        )
    left, lterms = _closed_text(rng)
    right, rterms = _closed_text(rng)
    diff = dict(lterms)
    for e, c in rterms.items():
        diff[e] = diff.get(e, 0) - c
    diff = {e: c for e, c in diff.items() if c}
    ordering = {"zero": "equal"}.get(_classification(diff))
    if ordering is None:
        ordering = "greater" if diff[min(diff)] > 0 else "less"
    c, d = small_rat(rng), small_rat(rng)
    shadow_expr = f"({series_text({F(0): a, F(1): b})})/({series_text({F(0): c, F(2): d})})"
    return [
        CliOp("eval", ["eval", expr, "--precision", str(precision)], eval_check),
        CliOp(
            "classify",
            ["classify", left],
            lambda ans: ans["classification"] == _classification(lterms),
        ),
        CliOp("compare", ["compare", left, right], lambda ans: ans["ordering"] == ordering),
        CliOp("shadow", ["shadow", shadow_expr], lambda ans: ans["shadow"] == str(a / c)),
    ]


def cli_stream(seed):
    """Rounds of 12 processes: every subcommand once, the filters action
    cycling through enumerate 4, classify, enumerate 5 and generate; a
    seeded half of each round asks for --json."""
    rng = random.Random(f"cli:{seed}")
    actions = itertools.cycle((4, "classify", 5, "generate"))
    while True:
        ops = _closed_cli_ops(rng) + _analysis_cli_ops(rng)
        ops.append(_filters_op(rng, next(actions)))
        ops.append(_transfer_op(rng))
        ops.append(_hilbert_op(rng, rng.choice((4, 8))))
        ops.append(_filters_op(rng, rng.choice(("classify", "generate"))))
        flags = [True] * (len(ops) // 2) + [False] * (len(ops) - len(ops) // 2)
        rng.shuffle(flags)
        rng.shuffle(ops)
        for op, as_json in zip(ops, flags):
            if as_json:
                op.argv = op.argv + ["--json"]
            yield op


# ---------------------------------------------------------------------------
# Reading CLI output into the JSON payload shape


def read_cli(argv, code, stdout):
    """Normalise one CLI answer to its JSON ``result`` shape, or None if the
    exit code, envelope or text layout is not what the command promises."""
    if code != 0:
        return None
    if "--json" in argv:
        lines = stdout.splitlines()
        if len(lines) != 1:
            return None
        envelope = json.loads(lines[0])
        if envelope.get("ok") is not True or set(envelope) != {"ok", "result"}:
            return None
        return envelope["result"]
    return _read_text(argv, stdout.splitlines())


def _read_text(argv, lines):
    command = argv[0]
    if not lines:
        return None
    first = lines[0]
    if command == "eval":
        return {"value": first}
    if command == "classify":
        return {"classification": first}
    if command == "compare":
        return {"ordering": first}
    if command == "shadow":
        return {"shadow": first}
    if command == "diff":
        if first.startswith("non-differentiable: "):
            return {"derivative": None, "non_differentiable": True}
        return {"derivative": first, "non_differentiable": False}
    if command in ("limit", "seq-limit"):
        if first in ("+inf", "-inf"):
            return {"kind": "plus-infinity" if first == "+inf" else "minus-infinity", "value": None}
        head = first.split(":", 1)[0]
        if head in ("no-limit", "undecidable"):
            return {"kind": head, "value": None}
        return {"kind": "finite", "value": first}
    if command == "continuity":
        return {"continuous": first == "continuous"} if first in ("continuous", "discontinuous") else None
    if command == "filters":
        return _read_filters(argv[1], lines)
    if command == "transfer":
        return _read_transfer(lines)
    if command == "hilbert":
        return _read_hilbert(argv, lines)
    return None


def _read_filters(action, lines):
    if action == "enumerate":
        count = int(lines[0].split()[0])
        return {"count": count, "ultrafilters": [json.loads(x) for x in lines[1:]]}
    if action == "generate":
        return {"family": json.loads(lines[0])}
    fields = dict(line.split(": ", 1) for line in lines)
    gen = fields["principal generator"]
    return {
        "is_filter": fields["filter"] == "True",
        "is_proper": fields["proper"] == "True",
        "is_ultrafilter": fields["ultrafilter"] == "True",
        "principal_generator": None if gen == "None" else int(gen),
    }


def _read_transfer(lines):
    fields = dict(line.split(": ", 1) for line in lines)
    split = lambda key: fields[key].split(", ") if key in fields else []
    return {
        "verdict": fields["verdict"],
        "free_vars": split("free variables"),
        "external_symbols": split("external symbols"),
        "transformed_text": fields.get("star transform"),
    }


def _read_hilbert(argv, lines):
    positional = [a for a in argv[1:] if not a.startswith("--") and not a.isdigit()]
    if len(positional) == 2:
        text = lines[0]
        if text.startswith("(") and text.endswith(")*i"):
            re, im = text[1:-3].split(") + (")
            return {"inner": {"re": re, "im": im}}
        return {"inner": {"re": text, "im": "0"}}
    fields = dict(line.split(": ", 1) for line in lines)
    return {"classification": fields["classification"]}
