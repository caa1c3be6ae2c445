"""The all-pairs near-duplicate lint and the full-row edit distance that
``cdcgraph.consistency`` replaced, kept unchanged as the reference for
``tests/test_consistency.py``.

``_domain_lints`` compares every pair of domain texts with
``edit_distance_at_most``, which fills whole rows of the Levenshtein table.
"""

from __future__ import annotations

from cdcgraph.consistency import Lint
from cdcgraph.store import FactStore


def edit_distance_at_most(a: str, b: str, bound: int) -> bool:
    """Levenshtein(a, b) <= bound, with cheap cutoffs."""
    if abs(len(a) - len(b)) > bound:
        return False
    if a == b:
        return True
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        best = i
        for j, cb in enumerate(b, start=1):
            cost = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (ca != cb),
            )
            current.append(cost)
            best = min(best, cost)
        if best > bound:
            return False
        previous = current
    return previous[-1] <= bound


def _domain_lints(store: FactStore) -> list[Lint]:
    texts = sorted(store.stats().facts_per_domain)
    lints: list[Lint] = []
    by_folded: dict[str, list[str]] = {}
    for text in texts:
        by_folded.setdefault(text.lower(), []).append(text)
    for folded in sorted(by_folded):
        variants = by_folded[folded]
        if len(variants) > 1:
            lints.append(Lint(
                kind="case-variant-domains",
                description="domains differ only by case: " + ", ".join(variants),
            ))
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            a, b = texts[i], texts[j]
            if a.lower() == b.lower():
                continue  # already flagged as a case variant
            if edit_distance_at_most(a, b, 2):
                lints.append(Lint(
                    kind="near-duplicate-domains",
                    description=f"domains are near-duplicates (edit distance <= 2): {a}, {b}",
                ))
    return lints
