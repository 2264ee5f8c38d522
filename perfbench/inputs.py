"""Input pools of the four workloads, and their seeded variants.

Every workload owns a fixed pool of base inputs, drawn once from a fixed
pool seed.  The run seed picks the order in which each pass visits the
pool and the order in which each polynomial's terms are written.  Neither
changes the mathematical problem, so the cost of a pass and the canonical
JSON of every input do not depend on the run seed.  The pool is fixed
because the cost of one input spreads over two orders of magnitude: a
fresh corpus per seed would need hundreds of inputs per run for a steady
median.

Inputs reach the program as text, exactly as a user would type them.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

# Pool seeds.  ACCEPTANCE_SEED is the seed of the random conservation suite
# in tests/test_acceptance.py, so corpus-d4 is a prefix of that corpus.
ACCEPTANCE_SEED = 20260824
NONREDUCED_SEED = 4242
VERIFY_SEED = 6060

# Pools are sized so that one pass takes 7-13 s on a 2-core machine and a
# run holds two or more passes.
#
# corpus-d4: the first six inputs of the acceptance corpus except position
# 2, which alone takes 7 s.
CORPUS_D4_PICK = (0, 1, 3, 4, 5)
NONREDUCED_SIZE = 14
# verify-d6: positions in the stream of the inputs that make up the pool.
# Of the first twelve, those whose analysis plus verification ended within
# 8 s at the baseline commit, less position 2 (an oracle mismatch taking
# 7-9 s; position 19 keeps that category) and position 14 (a second
# genericity failure like position 9); plus position 23, the first input
# that ends in an internal error.
VERIFY_PICK = (0, 5, 6, 9, 10, 11, 12, 19, 23)

# (name, f, expected morse number), run with --ell "x + y".
GOLDEN = (
    ("cubic", "x + x^2*y", 2),
    ("quintic", "x*y + 1/3*x^3*y^2", 4),
    ("sextic", "x*y + 1/3*x^3*y^2 + x^6", 9),
)
GOLDEN_ELL = "x + y"


@dataclass(frozen=True)
class Item:
    """One input of a pass.

    ``base`` names the pool entry, ``f`` is the polynomial text given to
    the program and ``seed`` the genericity seed passed to
    ``analyze_symbolic``.  ``golden`` and ``verify`` are used by
    cli-golden only."""

    base: str
    f: str
    seed: int = 0
    golden: str = ""
    verify: bool = False


def _term_text(coeff, e):
    mono = "*".join(v if k == 1 else "%s^%d" % (v, k)
                    for v, k in zip("xy", e) if k)
    if not mono:
        return str(coeff)
    if coeff == 1:
        return mono
    if coeff == -1:
        return "-" + mono
    return "%s*%s" % (coeff, mono)


def poly_text(terms, rng):
    """Text of a polynomial given as {(i, j): Fraction}, terms in an order
    shuffled by ``rng``."""
    keys = sorted(terms)
    rng.shuffle(keys)
    text = " + ".join(_term_text(terms[e], e) for e in keys)
    return text.replace("+ -", "- ")


# ---------------------------------------------------------------------------
# base pools


def _acceptance_f(rng):
    """The generator of the acceptance suite's conservation corpus: dense,
    total degree <= 4, density 0.45, coefficients in +-9/1..9."""
    while True:
        terms = {}
        for i in range(5):
            for j in range(5 - i):
                if rng.random() < 0.45:
                    num = rng.randint(-9, 9)
                    if num:
                        terms[(i, j)] = Fraction(num, rng.randint(1, 9))
        if max((sum(e) for e in terms), default=0) >= 2:
            return terms


def corpus_d4_pool():
    """(position, terms, genericity seed) of the acceptance corpus inputs
    at CORPUS_D4_PICK, with the seed the suite gives each of them."""
    rng = random.Random(ACCEPTANCE_SEED)
    stream = [_acceptance_f(rng) for _ in range(max(CORPUS_D4_PICK) + 1)]
    return [(i, stream[i], i + 1) for i in CORPUS_D4_PICK]


def _poly_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _small_poly(rng, degree):
    """Dense polynomial of exact total degree ``degree``, integer
    coefficients in -2..2."""
    while True:
        terms = {}
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                c = rng.randint(-2, 2)
                if c:
                    terms[(i, j)] = Fraction(c)
        if max((sum(e) for e in terms), default=0) == degree:
            return terms


def corpus_nonreduced_pool():
    """f = p^2 * q with p, q random of degree 1-2: every input has the
    curve p = 0 inside its singular locus."""
    rng = random.Random(NONREDUCED_SEED)
    out = []
    for i in range(NONREDUCED_SIZE):
        p = _small_poly(rng, rng.randint(1, 2))
        q = _small_poly(rng, rng.randint(1, 2))
        out.append((i, _poly_mul(_poly_mul(p, p), q), i + 1))
    return out


def verify_pool():
    """Sparse inputs of degree 5-6 with 3-5 monomials and coefficients
    +-{1,2,3}/{1,2,3}."""
    rng = random.Random(VERIFY_SEED)
    out = []
    for i in range(max(VERIFY_PICK) + 1):
        d = rng.randint(5, 6)
        monos = [(a, b) for a in range(d + 1) for b in range(d + 1 - a)
                 if a + b >= 1]
        top = [e for e in monos if sum(e) == d]
        while True:
            chosen = rng.sample(monos, rng.randint(3, 5))
            if any(e in top for e in chosen):
                break
        terms = {e: Fraction(rng.choice((-1, 1)) * rng.randint(1, 3),
                             rng.randint(1, 3)) for e in chosen}
        out.append((i, terms, i + 1))
    return [out[i] for i in VERIFY_PICK]


POOLS = {
    "corpus-d4": corpus_d4_pool,
    "corpus-nonreduced": corpus_nonreduced_pool,
    "verify-d6": verify_pool,
}

def corpus_pass(workload, seed, k):
    """Items of pass ``k`` of a corpus workload under run seed ``seed``."""
    rng = random.Random("%s/%d/%d" % (workload, seed, k))
    items = []
    for pos, terms, gseed in POOLS[workload]():
        items.append(Item("%s#%d" % (workload, pos), poly_text(terms, rng),
                          gseed))
    rng.shuffle(items)
    return items


def golden_pass(seed, k):
    """The six CLI calls of one cli-golden pass: each golden with and
    without --verify, terms in seeded order, calls in seeded order."""
    rng = random.Random("cli-golden/%d/%d" % (seed, k))
    items = []
    for name, text, _morse in GOLDEN:
        terms = [t.strip() for t in text.split("+")]
        for verify in (False, True):
            rng.shuffle(terms)
            items.append(Item("cli-golden#%s" % name, " + ".join(terms), 0,
                              name, verify))
    rng.shuffle(items)
    return items
