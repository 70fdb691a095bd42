#!/usr/bin/env python3
"""The unbiased pass@k estimator, checked against brute-force enumeration."""
from itertools import combinations

from modeval import pass_at_k

# --- estimator vs. enumerating every k-subset ---------------------------------
def enumerated(n, c, k):
    subsets = list(combinations(range(n), k))
    return sum(any(i < c for i in s) for s in subsets) / len(subsets)

print("n=10, c=3: estimator vs enumeration")
for k in range(1, 11):
    est = pass_at_k(10, 3, k)
    ref = enumerated(10, 3, k)
    print(f"  k={k:>2}  {est:.6f}  {ref:.6f}  |delta|={abs(est - ref):.2e}")

# --- curves over k for different correctness counts ----------------------------
n = 20
print(f"\npass@k curves, n={n}:")
header = "   c  " + "".join(f"k={k:<7}" for k in (1, 2, 5, 10, 20))
print(header)
for c in (0, 1, 2, 5, 10):
    row = [pass_at_k(n, c, k) for k in (1, 2, 5, 10, 20)]
    print(f"  {c:>2}  " + "".join(f"{v:<9.4f}" for v in row))

# the curve is concave in k: the marginal value of extra samples shrinks
values = [pass_at_k(n, 3, k) for k in range(1, n + 1)]
marginal = [b - a for a, b in zip(values, values[1:])]
print("\nmarginal gain of each extra draw (c=3):",
      "[" + " ".join(f"{m:.4f}" for m in marginal[:6]) + "]", "...")
assert all(b - a <= 1e-12 for a, b in zip(marginal, marginal[1:]))
print("concavity holds across the whole range")
