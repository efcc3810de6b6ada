"""Exact arithmetic substrate.

Base rings (Z, F_p, Z[t], F_p[t]), sparse multivariate polynomials in
graded-lex canonical form, the symbolic determinant, one elimination over
Z (int_adjugate: fraction-free, giving det and adjugate together), one
over F_p (fp_rref, with fp_kernel on top), roots over F_p by Berlekamp's
splitting (cost polynomial in log p, not a walk over F_p), and necklace
counts.  A SparsePoly is a form to evaluate, reduce, sign and print; it has
no ring arithmetic, since only determinant multiplies polynomials.  All
four bases carry algebras and their index forms; only Z reduces mod p, to
F_p, so a point scan runs over Z or F_p and never over F_p[t].
Univariate polynomials are dense tuples, constant term first, and the
_tup_* helpers are their only arithmetic: over Z, or over F_p when given
p; one loop, _tup_rem, reduces mod a monic f for division, gcds and powers.

Element encodings per base ring:
  Z    -> python int
  Fp   -> int in [0, p)
  ZX   -> tuple of ints, constant term first, no trailing zeros; () is zero
  FpX  -> tuple of ints in [0, p), same normalization
"""

from __future__ import annotations

from itertools import chain, count, zip_longest
from math import gcd

from .errors import (
    ArityMismatch,
    BaseRingMismatch,
    BudgetExceeded,
    MonogenError,
    NonMonic,
    NonSquare,
    NotIntegerBase,
    SplitFailure,
    ZeroPolynomial,
)

# ---------------------------------------------------------------------------
# primality


# The first 13 primes as Miller-Rabin bases decide primality for every
# n below MR_BOUND (Sorenson and Webster, 2015).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981
# Longest cycle Pollard-Brent tries on a cofactor beyond MR_BOUND.  A prime
# factor q takes about sqrt(q) steps, so factors up to about 10^10 are found.
POLLARD_BRENT_BUDGET = 1 << 18


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2..41, valid for n < MR_BOUND.

    Raises BudgetExceeded beyond that bound instead of guessing.
    """
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    if n >= MR_BOUND:
        raise BudgetExceeded(
            f"the Miller-Rabin primality test is deterministic only below {MR_BOUND}; "
            f"{n} is beyond it"
        )
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factor_int(n: int) -> dict:
    """Factorization {prime: exponent} of |n|.

    Trial division by the primes below 1000 stops once q^2 exceeds what is
    left, which is then 1 or a prime.  A cofactor that outlasts it goes
    through perfect-power roots and Pollard-Brent splitting.  On a cofactor
    beyond the primality test, Pollard-Brent runs within
    POLLARD_BRENT_BUDGET and then raises BudgetExceeded.
    """
    n = abs(n)
    out = {}
    for q in chain((2,), range(3, 1000, 2)):  # a composite q never divides what is left
        if q * q > n:  # what is left is 1 or a prime
            if n > 1:
                out[n] = 1
            return out
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    stack = [(n, 1)]
    while stack:
        m, e = stack.pop()
        root, k = _perfect_power(m)
        if k > 1:
            stack.append((root, e * k))
        elif m < MR_BOUND and is_prime(m):
            out[m] = out.get(m, 0) + e
        else:
            d = _pollard_brent(m, POLLARD_BRENT_BUDGET if m >= MR_BOUND else None)
            stack += [(d, e), (m // d, e)]
    return dict(sorted(out.items()))


def _iroot(n: int, k: int) -> int:
    """Largest r with r^k <= n, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_power(m: int):
    """(r, k) with m = r^k for some k > 1, else (m, 1).

    m has no prime factor below 1000, so a root r is above 2^9 and
    k <= m.bit_length() // 9.
    """
    for k in range(2, m.bit_length() // 9 + 1):
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return m, 1


def _pollard_brent(n: int, budget: int | None = None) -> int:
    """A proper divisor of an odd composite n (Brent's cycle finding, batched gcds).

    With a budget, n may be prime: the search gives up with BudgetExceeded
    once a cycle-length guess passes the budget.
    """
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if budget is not None and r > budget:
                raise BudgetExceeded(
                    f"Pollard-Brent found no factor of {n} with cycles up to {budget}, and the "
                    f"Miller-Rabin primality test is deterministic only below {MR_BOUND}"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# dense univariate helpers over Z and F_p (tuples, constant first)


def _tup_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _tup_add(a, b, p=None):
    out = [x + y for x, y in zip_longest(a, b, fillvalue=0)]
    return _tup_trim(out if p is None else [v % p for v in out])


def _tup_mul(a, b, p=None):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u == 0:
            continue
        for j, v in enumerate(b):
            out[i + j] += u * v
    if p is not None:
        out = [v % p for v in out]
    return _tup_trim(out)


def _tup_rem(a, low, p=None):
    """Reduce the list a in place mod the monic f = x^n + low, over F_p when p is given.

    The loop pops the top coefficient, reduces it mod p once and subtracts
    its multiple of f.  The popped coefficients, top first, are returned:
    the quotient.  The remainder stays in a, neither reduced mod p nor trimmed.
    """
    n = len(low)
    q = []
    for top in range(len(a) - 1, n - 1, -1):
        c = a.pop() if p is None else a.pop() % p
        q.append(c)
        if c:
            for j, t in enumerate(low, top - n):
                a[j] -= c * t
    return q


def _tup_divmod(a, f, p=None):
    """(q, r) with a = q*f + r and deg r < deg f, for a monic f; over F_p when p is given."""
    r = list(a)
    q = _tup_rem(r, f[:-1], p)
    return _tup_trim(reversed(q)), _tup_trim(r if p is None else [x % p for x in r])


def _tup_gcd(a, b, p):
    """The monic gcd over F_p of a monic a and any b, on lists, remainders in place."""
    a, b = list(a), list(_tup_trim([c % p for c in b]))
    while b:
        if b[-1] != 1:
            inv = pow(b[-1], -1, p)
            b = [c * inv % p for c in b]
        _tup_rem(a, b[:-1], p)
        a = [x % p for x in a]
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return tuple(a)


def _tup_powmod(a, k, f, p):
    """a^k mod a monic f over F_p, k >= 1, left to right: square, then multiply by a.

    Each product is reduced mod f by _tup_rem, with one reduction mod p per
    coefficient; only the result is trimmed.
    """
    low = f[:-1]

    def mulmod(u, v):
        prod = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            if x:
                for j, y in enumerate(v, i):
                    prod[j] += x * y
        _tup_rem(prod, low, p)
        return [x % p for x in prod]

    a = list(a)
    _tup_rem(a, low, p)
    out = a = [x % p for x in a]
    for bit in bin(k)[3:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, a)
    return _tup_trim(out)


# ---------------------------------------------------------------------------
# base rings


class BaseRing:
    """One of Z, F_p, Z[t], F_p[t], with decidable arithmetic and unit test."""

    KINDS = ("Z", "Fp", "ZX", "FpX")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in self.KINDS:
            raise MonogenError(f"unknown base ring kind {kind!r}")
        if kind in ("Fp", "FpX"):
            if not isinstance(p, int) or not is_prime(p):
                raise MonogenError(f"modulus {p!r} is not a prime")
        else:
            p = None
        self.kind = kind
        self.p = p
        self.is_polynomial = kind in ("ZX", "FpX")

    # -- identity / hashing

    def __eq__(self, other):
        return isinstance(other, BaseRing) and (self.kind, self.p) == (other.kind, other.p)

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return f"BaseRing({self.kind}{'' if self.p is None else f', p={self.p}'})"

    # -- element construction

    def coerce(self, v):
        """Accept ints, or coefficient lists/tuples for polynomial kinds; never bools."""
        p = self.p
        if type(v) is int:
            v = v if p is None else v % p
            return _tup_trim((v,)) if self.is_polynomial else v
        if self.is_polynomial and isinstance(v, (list, tuple)) and all(type(c) is int for c in v):
            return _tup_trim(v if p is None else (c % p for c in v))
        raise MonogenError(f"cannot coerce {v!r} into {self!r}")

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    # -- arithmetic: p is None over Z and Z[t]; polynomials are dense tuples

    def add(self, a, b):
        if self.is_polynomial:
            return _tup_add(a, b, self.p)
        return a + b if self.p is None else (a + b) % self.p

    def neg(self, a):
        p = self.p
        if self.is_polynomial:
            return tuple(-c for c in a) if p is None else tuple(-c % p for c in a)
        return -a if p is None else -a % p

    def mul(self, a, b):
        if self.is_polynomial:
            return _tup_mul(a, b, self.p)
        return a * b if self.p is None else a * b % self.p

    def is_unit(self, a) -> bool:
        if self.is_polynomial:
            if len(a) != 1:
                return False
            a = a[0]
        return a in (1, -1) if self.p is None else a % self.p != 0

    def is_negative(self, a) -> bool:
        """Canonical-sign convention: Z/ZX by leading sign, F_p by upper half."""
        if not a:
            return False
        lead = a[-1] if self.is_polynomial else a
        return lead < 0 if self.p is None else lead > self.p // 2

    # -- serialization

    def elem_to_json(self, a):
        return list(a) if self.is_polynomial else a

    def format_elem(self, a, var: str = "t") -> str:
        if not self.is_polynomial:
            return str(a)
        if not a:
            return "0"
        parts = []
        for e in range(len(a) - 1, -1, -1):
            c = a[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}{var}" + (f"^{e}" if e > 1 else ""))
        s = parts[0]
        for part in parts[1:]:
            s += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return s

    def to_json(self):
        d = {"kind": self.kind}
        if self.p is not None:
            d["p"] = self.p
        return d

    @classmethod
    def from_json(cls, d):
        return cls(d["kind"], d.get("p"))


ZZ = BaseRing("Z")
ZX = BaseRing("ZX")


def Fp(p: int) -> BaseRing:
    return BaseRing("Fp", p)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials


def _grlex_key(exps):
    return (sum(exps), exps)


class SparsePoly:
    """Sparse multivariate polynomial over a BaseRing, graded-lex canonical."""

    __slots__ = ("base", "arity", "terms")

    def __init__(self, base: BaseRing, arity: int, terms=None):
        self.base = base
        self.arity = arity
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != arity:
                raise ArityMismatch(f"exponent vector {exps} has wrong arity")
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    # -- constructors

    @classmethod
    def _derived(cls, base, arity, terms: dict) -> "SparsePoly":
        """A polynomial from terms already clean: exponent tuples of length
        arity and no zero coefficient, so __init__'s checks are skipped."""
        poly = cls.__new__(cls)
        poly.base, poly.arity, poly.terms = base, arity, terms
        return poly

    @classmethod
    def constant(cls, base, arity, c):
        return cls(base, arity, {(0,) * arity: base.coerce(c)})

    # -- predicates and views

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self.terms)

    def variables_used(self):
        """Sorted indices of variables with a positive exponent somewhere."""
        return [i for i, column in enumerate(zip(*self.terms)) if any(column)]

    def _check_compatible(self, other):
        if self.base != other.base:
            raise BaseRingMismatch(f"{self.base!r} vs {other.base!r}")
        if self.arity != other.arity:
            raise ArityMismatch(f"arity {self.arity} vs {other.arity}")

    # -- evaluation / reduction

    def evaluate(self, values):
        """Substitute a base-ring element for each variable, coerced here only.

        A univariate polynomial over Z or F_p, a line of a scan, is summed in
        plain ints and reduced mod p once; any other in the base ring.
        """
        if len(values) != self.arity:
            raise ArityMismatch(f"expected {self.arity} values, got {len(values)}")
        base = self.base
        vals = [base.coerce(v) for v in values]
        if self.arity == 1 and not base.is_polynomial:
            acc = 0
            x = vals[0]
            for (e,), c in self.terms.items():
                acc += c * x**e
            return acc if base.p is None else acc % base.p
        acc = base.zero
        for exps, c in self.terms.items():
            t = c
            for v, e in zip(vals, exps):
                for _ in range(e):
                    t = base.mul(t, v)
            acc = base.add(acc, t)
        return acc

    def reduce_mod_p(self, p: int) -> "SparsePoly":
        """Map Z -> F_p coefficientwise; no other base is reduced."""
        if self.base.kind != "Z":
            raise NotIntegerBase("reduction mod p needs base Z")
        terms = {e: r for e, c in self.terms.items() if (r := c % p)}
        return SparsePoly._derived(Fp(p), self.arity, terms)

    def canonical_sign(self) -> "SparsePoly":
        """Negate if the graded-lex leading coefficient is negative."""
        terms, neg = self.terms, self.base.neg
        if terms and self.base.is_negative(terms[max(terms, key=_grlex_key)]):
            return SparsePoly._derived(self.base, self.arity, {e: neg(c) for e, c in terms.items()})
        return self

    def integer_coefficients(self):
        """Flat list of all integer coefficients (Z and ZX bases)."""
        if self.base.p is not None:
            raise BaseRingMismatch("integer coefficients need base Z or Z[t]")
        if self.base.is_polynomial:
            return [x for c in self.terms.values() for x in c]
        return list(self.terms.values())

    # -- serialization

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def text(self) -> str:
        """Canonical text form, graded-lex descending: c*x1^e1*...*xn^en + ..."""
        if not self.terms:
            return "0"
        base = self.base
        chunks = []
        for exps, c in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(exps)
                if e > 0
            )
            neg = base.is_negative(c) and base.p is None
            cc = base.neg(c) if neg else c
            cs = base.format_elem(cc)
            if base.is_polynomial and sum(map(bool, cc)) > 1 and mono:  # a sum of terms
                cs = f"({cs})"
            body = cs if not mono else (mono if cs == "1" else f"{cs}*{mono}")
            chunks.append(("-" if neg else "+", body))
        sign, body = chunks[0]
        s = body if sign == "+" else f"-{body}"
        for sign, body in chunks[1:]:
            s += f" {sign} {body}"
        return s

    def to_json(self):
        return {
            "base": self.base.to_json(),
            "vars": [f"x{i + 1}" for i in range(self.arity)],
            "terms": [
                [self.base.elem_to_json(c), list(e)] for e, c in self.sorted_terms()
            ],
        }

    def __repr__(self):
        return f"SparsePoly({self.text()})"


# ---------------------------------------------------------------------------
# determinants


def _int_mul_into(acc, f, g):
    """Add f*g into acc, for dicts of packed int keys to int coefficients."""
    get = acc.get
    for e2, c2 in g.items():
        for e1, c1 in f.items():
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


def determinant(m):
    """Exact determinant by Laplace expansion on blocked big-int coefficients.

    After row k, ``minors`` maps each (k+1)-column bitmask to the minor of
    rows 0..k on those columns.  Extending by column j of the next row
    crosses every chosen column above j, hence the sign.  Nothing is
    divided, so the expansion needs only + and * of integers.

    *Dehomogenize.*  If every row is homogeneous, of degree d_i say (which
    is checked), every term of the determinant has degree sum(d_i).  Then
    the last variable the entries use is left out of them, and its exponent
    is restored from that degree at the end.

    *Block.*  One more variable is carried inside the integers: t itself
    over Z[t] and F_p[t], else the last variable the entries still use.
    An entry's terms are grouped by the exponents of the remaining
    variables, packed into one int so that a product of monomials is the
    sum of their keys.  Each group becomes the integer sum of
    c_e * 2^(B*e), e the exponent of the block variable, and a product of
    two groups is one product of integers: y -> 2^B is a ring
    homomorphism Z[y] -> Z.

    *Decode.*  The final minor is read off in balanced base-2^B digits
    until what is left of it is 0, which returns each coefficient c of the
    determinant as long as |c| < 2^(B-1).  A coefficient of the
    determinant is a signed sum of products of one coefficient from each
    row, so |c| is at most the product over rows of the row's L1 norm (the
    sum of the absolute values of all its coefficients).  B is one more
    than the bit length of that product.  F_p and F_p[t] are computed on their representatives in Z
    and reduced once, after decoding.
    """
    n = _check_square(m)
    first = m[0][0]
    base, arity = first.base, first.arity
    for row in m:
        for f in row:
            first._check_compatible(f)
    rows = [[f.terms for f in row] for row in m]
    degrees, top, bound = [], [0] * arity, 1
    for row in rows:
        exps = [e for terms in row for e in terms]
        if not exps:
            return SparsePoly._derived(base, arity, {})
        row_degrees = set(map(sum, exps))
        degrees.append(row_degrees.pop() if len(row_degrees) == 1 else None)
        # no exponent of x_i in the determinant exceeds top[i]
        top = [t + max(column) for t, column in zip(top, zip(*exps))]
        coefficients = [c for terms in row for c in terms.values()]
        if base.is_polynomial:
            coefficients = [x for c in coefficients for x in c]
        bound *= sum(map(abs, coefficients))
    B = bound.bit_length() + 1
    width = max(max(top, default=0).bit_length(), 1)
    field = (1 << width) - 1
    shifts = [width * i for i in range(arity)]
    packed = {}
    for row in rows:
        for terms in row:
            for e in terms:
                if e not in packed:
                    packed[e] = sum(x << s for x, s in zip(e, shifts))
    kept = [i for i in range(arity) if top[i]]  # the variables the entries use
    dropped = kept.pop() if None not in degrees and kept else None
    block = kept.pop() if not base.is_polynomial and kept else None
    mask = sum(field << shifts[i] for i in kept)

    def blocked(terms):
        out = {}
        for e, c in terms.items():
            k = packed[e]
            if base.is_polynomial:
                c = sum(x << (B * j) for j, x in enumerate(c))
            elif block is not None:
                c <<= B * (k >> shifts[block] & field)
            key = k & mask
            out[key] = out.get(key, 0) + c  # distinct block exponents: no sum is 0
        return out

    minors = {1 << j: f for j, terms in enumerate(rows[0]) if (f := blocked(terms))}
    for row in rows[1:]:
        signed = [(f, {k: -c for k, c in f.items()}) for f in map(blocked, row)]
        nxt = {}
        for cols, minor in minors.items():
            for j, (f, neg_f) in enumerate(signed):
                bit = 1 << j
                if cols & bit or not f:
                    continue
                acc = nxt.setdefault(cols | bit, {})
                _int_mul_into(acc, minor, neg_f if (cols >> j).bit_count() & 1 else f)
        minors = {k: f for k, acc in nxt.items() if (f := {e: c for e, c in acc.items() if c})}

    p, half, radix = base.p, 1 << (B - 1), 1 << B
    total = sum(degrees) if dropped is not None else 0
    terms = {}
    for key, v in minors.get((1 << n) - 1, {}).items():
        exps = [key >> s & field for s in shifts]
        digits = []
        while v:
            d = v & (radix - 1)
            v >>= B
            if d >= half:  # balanced digit: borrow from the next one
                d -= radix
                v += 1
            digits.append(d if p is None else d % p)
        # over Z[t] and F_p[t] the digits are the coefficient, and block is None
        for j, c in [(0, _tup_trim(digits))] if base.is_polynomial else enumerate(digits):
            if c:
                if block is not None:
                    exps[block] = j
                if dropped is not None:
                    exps[dropped] = 0
                    exps[dropped] = total - sum(exps)
                terms[tuple(exps)] = c
    return SparsePoly._derived(base, arity, terms)


def _check_square(m):
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise NonSquare("matrix is not square and nonempty")
    return n


def int_adjugate(m):
    """(det m, adj m) of a square integer matrix, by one fraction-free Gauss-Jordan pass.

    Bareiss elimination on [m | I] clears each pivot column above and below
    the pivot.  After pivot k every entry is d_k times its value in rational
    Gauss-Jordan elimination, d_k the leading (k+1)-minor of the row-swapped
    m, so each division by the previous pivot is exact and the pivot row
    stays as it is.  Columns 0..k would then hold d_k on the diagonal and 0
    elsewhere; no step reads them again, so each step computes only the
    columns right of its pivot, and a row with 0 in the pivot column is
    only rescaled by d_k / d_(k-1).  At the end the right half is d*m^-1,
    d = +-det m.  adj is None exactly when det m == 0.
    """
    n = _check_square(m)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            return 0, None
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        d, tail = a[k][k], a[k][k + 1:]
        for i, row in enumerate(a):
            if i == k:
                continue
            c = row[k]
            if c:
                row[k + 1:] = [(d * x - c * y) // prev for x, y in zip(row[k + 1:], tail)]
            else:
                row[k + 1:] = [d * x // prev if x else 0 for x in row[k + 1:]]
        prev = d
    return sign * prev, [[sign * x for x in row[n:]] for row in a]


# ---------------------------------------------------------------------------
# linear algebra over F_p


def fp_rref(rows, p):
    """Reduced row echelon form over F_p: (nonzero rows as tuples, pivot columns).

    Entries are reduced into [0, p) once, on the way in, and the
    elimination stops as soon as every row holds a pivot.
    """
    m = [[v % p for v in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == nrows:
            break
        for piv in range(r, nrows):
            if m[piv][col]:
                break
        else:
            continue
        row = m[piv]
        m[piv] = m[r]
        if row[col] != 1:
            inv = pow(row[col], p - 2, p)
            row = [v * inv % p for v in row]
        m[r] = row
        for i in range(nrows):
            c = m[i][col]
            if c and i != r:
                m[i] = [(a - c * b) % p for a, b in zip(m[i], row)]
        pivots.append(col)
        r += 1
    return [tuple(row) for row in m[:r]], pivots


def fp_kernel(rows, p):
    """Basis of {v : row . v = 0 mod p for every row}, one vector per free column."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = fp_rref(rows, p)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[free] = 1
        for row, col in zip(reduced, pivots):
            v[col] = (-row[free]) % p
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# content primes


def content_primes(f: SparsePoly) -> set:
    """Primes dividing every integer coefficient of f (base Z or Z[t])."""
    if f.is_zero:
        raise ZeroPolynomial("content of the zero polynomial is undefined")
    g = 0
    for c in f.integer_coefficients():
        g = gcd(g, c)
        if g == 1:
            return set()
    return set(factor_int(g))


def berlekamp_factor(f, p: int):
    """The sorted roots in F_p of a monic f that splits into distinct linear factors.

    f is a coefficient sequence, constant term first, read mod p; a
    composite p raises MonogenError.  Raises SplitFailure unless
    x^p = x mod f, that is, unless the roots of f are distinct and all in
    F_p.  Berlekamp's root splitting (1970): each piece g parts at
    gcd(g, (x + a)^e - 1), e = max((p - 1)/2, 1), for a = 0, 1, 2, ...
    until every piece is linear.  Two roots r, s part at the first a where
    exactly one of r + a, s + a is a nonzero square, which comes at some
    a < p (a character-sum argument) and in practice within a few steps;
    reaching a = p raises SplitFailure, since it can only mean faulty
    arithmetic.  Each step costs O(log p) products of polynomials of
    degree below deg f, not a walk over F_p.
    """
    if not is_prime(p):
        raise MonogenError(f"{p} is not prime")
    f = _tup_trim(c % p for c in f)
    if not f:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if f[-1] != 1:
        raise NonMonic("factorization requires a monic input")
    if len(f) > 2 and _tup_powmod((0, 1), p, f, p) != (0, 1):
        raise SplitFailure(
            f"{ZX.format_elem(f, 'x')} has a repeated root or a root outside F_{p}"
        )
    e = max((p - 1) // 2, 1)
    pieces, a = [f], 0
    while max(map(len, pieces)) > 2:
        if a == p:
            raise SplitFailure(f"roots of {ZX.format_elem(f, 'x')} did not part at any a < {p}")
        split = []
        for g in pieces:
            h = g
            if len(g) > 2:  # linear pieces are done
                r = _tup_powmod((a, 1), e, g, p)  # (x + a)^e, less 1 below
                h = _tup_gcd(g, ((r[0] - 1) % p, *r[1:]) if r else (p - 1,), p)
            split += [h, _tup_divmod(g, h, p)[0]] if 1 < len(h) < len(g) else [g]
        pieces, a = split, a + 1
    return sorted([-g[0] % p for g in pieces if len(g) == 2])


# ---------------------------------------------------------------------------
# counting


def _mobius(n: int) -> int:
    fac = factor_int(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def necklace_count(p: int, f: int) -> int:
    """Number of monic irreducible degree-f polynomials over F_p."""
    if not is_prime(p):
        raise MonogenError(f"{p} is not prime")
    if f < 1:
        raise MonogenError("degree must be positive")
    total = sum(_mobius(d) * p ** (f // d) for d in range(1, f + 1) if f % d == 0)
    return total // f

