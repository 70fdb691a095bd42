#!/usr/bin/env python3
"""Tour of the static code metrics: tokens, SLOC, complexity, volume, MI."""
from modeval import analyze, cyclomatic_complexity, maintainability_index, tokenize
from modeval.codemetrics import TokenKind, halstead_volume

SAMPLE = '''\
def read_values():
    """Read n integers from one stdin line."""
    input()  # drop the count line
    return list(map(int, input().split()))

def largest_pair_sum(values):
    """Largest sum of two distinct entries (list of int -> int)."""
    best = sorted(values)[-2:]
    return best[0] + best[1] if len(best) == 2 else values[0]

print(largest_pair_sum(read_values()))
'''

# --- token stream ------------------------------------------------------------
tokens = tokenize(SAMPLE)
print(f"{len(tokens)} tokens; first ten:")
for tok in tokens[:10]:
    print(f"  line {tok.line:>2}  {tok.kind.value:<13} {tok.text!r}")

kind_counts = {}
for tok in tokens:
    kind_counts[tok.kind.value] = kind_counts.get(tok.kind.value, 0) + 1
print("kind histogram:", dict(sorted(kind_counts.items())))

# --- the individual metrics --------------------------------------------------
print("\ncyclomatic complexity:", cyclomatic_complexity(SAMPLE))
print("halstead volume: %.2f" % halstead_volume(tokens))
metrics = analyze(SAMPLE)
print("full record:", metrics)

# --- how MI responds to each input -------------------------------------------
print("\nMI sweeps (other inputs held at V=100, CC=5, LOC=50, C=0.1):")
for volume in (10, 100, 1000, 10000):
    print(f"  V={volume:>6} -> MI {maintainability_index(volume, 5, 50, 0.1):7.2f}")
for density in (i / 4 for i in range(5)):
    print(f"  C={density:.2f}  -> MI {maintainability_index(100, 5, 50, density):7.2f}")

# comment density has a diminishing effect: the sin term flattens as
# sqrt(2.46*C) approaches pi/2
densities = [i / 100 for i in range(101)]
mi_values = [maintainability_index(100, 5, 50, c) for c in densities]
gains = [b - a for a, b in zip(mi_values, mi_values[1:])]
print("\nlargest single-step MI gain from comments: %.3f (near C=0)" % max(gains))
print("smallest: %.5f (near C=1)" % min(gains))
