"""Decision procedures on integer vectors: which vectors arise as
h''-vectors of cell spheres / products of spheres, as h-vectors of real
projective spaces, and as h-vectors of odd-dimensional manifolds.

Every decider is a direct test on the entries of its vector, and takes
O(d) steps: the projective-space test is the sphere test on a shifted
vector, and the manifold test has a closed form (see
:func:`check_manifold_h`).  All arithmetic is exact; negative results carry
the violated condition, positive ones a witness where the theorem calls
for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    failed_condition: str | None = None
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "failed_condition": self.failed_condition,
            "witness": list(self.witness) if self.witness is not None else None,
        }


def check_sphere_h(h) -> CheckResult:
    """Does `h` occur as the h-vector of a cell sphere (equivalently, as
    the h''-vector of a cell decomposition of a product of spheres of
    total dimension len(h)-2)?

    Conditions: (1) h_0 = h_d = 1 and h is symmetric; (2) all entries
    nonnegative; (3) an internal zero forces an even entry sum.
    """
    h = tuple(h)
    if len(h) < 2:
        raise ValueError("need a vector of length at least 2 (d >= 1)")
    d = len(h) - 1
    if any(x < 0 for x in h):
        return CheckResult(False, "nonnegativity")
    if h[0] != 1 or h[d] != 1 or any(h[i] != h[d - i] for i in range(d + 1)):
        return CheckResult(False, "symmetry with h_0 = h_d = 1")
    if any(h[i] == 0 for i in range(1, d)) and sum(h) % 2 == 1:
        return CheckResult(False, "internal zero with odd entry sum")
    return CheckResult(True)


def sphere_h_geq(h, h2) -> bool:
    """Partial order on admissible sphere h-vectors: h >= h2 when their
    difference, re-capped with ones, is again admissible."""
    h, h2 = tuple(h), tuple(h2)
    if len(h) != len(h2):
        raise ValueError("length mismatch")
    cap = (1,) + (0,) * (len(h) - 2) + (1,)
    diff = tuple(a - b + c for a, b, c in zip(h, h2, cap))
    return bool(check_sphere_h(diff))


def r_value(n: int, i: int) -> int:
    """Correction term for projective-space h-vectors: C(n,i) at even
    i < n, 0 at odd i < n, and -1 or 0 at i = n for odd or even n."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if i == n:
        return -1 if n % 2 == 1 else 0
    return comb(n, i) if i % 2 == 0 else 0


def check_rp_h(h, n: int) -> CheckResult:
    """Does `h` occur as the h-vector of a cell decomposition of
    (n-1)-dimensional real projective space?

    It does when the shifted vector (h_0, h_1 - r(n, 1), ..., h_n - r(n, n))
    passes :func:`check_sphere_h`; a failed condition is reported with the
    prefix ``"shifted "``.  For n >= 2 the r(n, i) sum to an even number, so
    the parity test on the shifted entry sum is the one on sum(h).
    """
    h = tuple(h)
    if len(h) != n + 1:
        raise ValueError(f"h must have length {n + 1}, got {len(h)}")
    res = check_sphere_h(
        (h[0],) + tuple(h[i] - r_value(n, i) for i in range(1, n + 1)))
    if res:
        return res
    return CheckResult(False, "shifted " + res.failed_condition)


def check_manifold_h(h, d: int) -> CheckResult:
    """For even d: does `h` occur as the h-vector of a cell decomposition
    of some closed (d-1)-manifold?

    It does when some Betti vector beta = (1, beta_1, ..., beta_{d-1}) with
    nonnegative entries, beta_i = beta_{d-1-i} for 0 < i < d-1 and
    beta_{d-1} = 0, makes the transform t a sphere h-vector
    (:func:`check_sphere_h`).  Here t_0 = h_0, t_d = h_d and
    t_k = h_k - C(d, k) a_k for 0 < k < d, where
    a_k = beta_{k-1} - beta_{k-2} + ... + (-1)^k beta_1 (so a_1 = 0).  The
    witness is the lexicographically least such beta.

    The decision is closed-form and takes O(d) steps.  With N = d/2:

    * A symmetric beta gives a_{d-k} = a_k, so t is symmetric exactly when
      h is, and t_d = h_d.
    * The entries of t sum to sum(h) minus the even number
      sum_k C(d, k) a_k: the terms k and d-k are equal and C(2N, N) is
      even.  For symmetric h the parity is that of h_N.
    * Let s = h_N mod 2.  An odd sum forbids internal zeros, so every
      interior entry must be at least s.  By symmetry only t_1 = h_1 and
      t_k for 2 <= k <= N matter: h_1 >= s and a_k <= u_k with
      u_k = floor((h_k - s) / C(d, k)).
    * beta_k = a_k + a_{k+1} >= 0 asks a_{k+1} >= -a_k.  So for k < N,
      a_{k+1} <= u_{k+1} needs a_k >= -u_{k+1}, and later entries ask
      nothing more of a_k: the least a_k with a continuation is
      max(-a_{k-1}, -u_{k+1}).  At k = N the same rule gives -a_{N-1},
      the least value beta_{N-1} >= 0 allows (beta_N = beta_{N-1} asks
      nothing more), because u_{N+1} = u_{N-1} >= a_{N-1}.
    * The least a_2, ..., a_N in turn give the lexicographically least
      beta, and some beta exists iff each of them stays at most u_k.
    """
    h = tuple(h)
    if d % 2 == 1:
        raise ValueError("the characterization applies to even d only")
    if len(h) != d + 1:
        raise ValueError(f"h must have length {d + 1}, got {len(h)}")
    if d == 0:
        raise ValueError("need d >= 2")
    half = d // 2
    s = h[half] % 2

    def u(k: int) -> int:
        return (h[k] - s) // comb(d, k)

    rejected = CheckResult(False, "no symmetric Betti vector makes the "
                                  "transform a sphere h-vector")
    if h[0] != 1 or h != h[::-1] or h[1] < s:
        return rejected
    a = [0, 0]                      # a_0 (unused) and a_1
    for k in range(2, half + 1):
        a.append(max(-a[k - 1], -u(k + 1)))
        if a[k] > u(k):
            return rejected
    beta = [a[i] + a[i + 1] for i in range(1, half)]
    return CheckResult(True, witness=(1, *beta, *beta[::-1], 0))
