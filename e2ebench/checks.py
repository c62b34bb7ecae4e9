"""Correctness checks, computed apart from the code under test.

Each function returns a list of failure messages (empty when the check
holds). Coverage is re-derived by plain-Python scans of the collected
tokens; precision from the collected ground-truth labels.
"""
from __future__ import annotations

import numpy as np

TR_PREFIX = "tr:"
GAP = "*"
PRECISION_BAR = 0.8


def contiguous_phrase(key: str) -> list[str] | None:
    """The token list of a contiguous TokensRegex n-gram key, else None."""
    if not key.startswith(TR_PREFIX):
        return None
    toks = key[len(TR_PREFIX):].split(" ")
    return None if GAP in toks else toks


def phrase_scan(token_lists: list[list[str]], phrase: list[str]) -> set[int]:
    """Sentence positions whose tokens contain ``phrase`` contiguously."""
    needle = " " + " ".join(phrase) + " "
    return {i for i, toks in enumerate(token_lists) if needle in " " + " ".join(toks) + " "}


def corpus(spec, labels: np.ndarray) -> list[str]:
    """n rows and round(n * pos_frac) positives (at least 2, as generated)."""
    fails = []
    n_pos = max(2, int(round(spec.n * spec.pos_frac)))
    if len(labels) != spec.n:
        fails.append(f"corpus has {len(labels)} rows, spec says {spec.n}")
    if int(labels.sum()) != n_pos:
        fails.append(f"corpus has {int(labels.sum())} positives, spec says {n_pos}")
    return fails


def session(prep, seed_key: str, budget: int, rules, positives, oracle_keys, history) -> list[str]:
    """Search-loop invariants and rule precision for one session."""
    fails = []
    union: set[int] = set()
    for r in rules:
        union |= prep.index.coverage(r)
    if union != set(positives):
        fails.append(f"P ({len(positives)}) != union of accepted coverage ({len(union)})")
    if len(oracle_keys) != len(set(oracle_keys)):
        fails.append("a key was asked twice")
    if len(oracle_keys) > budget:
        fails.append(f"{len(oracle_keys)} queries exceed budget {budget}")
    if len(history) != len(oracle_keys):
        fails.append(f"history has {len(history)} records for {len(oracle_keys)} queries")
    if not rules or rules[0] != seed_key:
        fails.append("seed rule is not the first rule")
    for r in rules[1:]:
        cov = np.fromiter(prep.index.coverage(r), dtype=np.int64)
        prec = float(prep.labels[cov].mean()) if len(cov) else 0.0
        if prec < PRECISION_BAR:
            fails.append(f"accepted {r!r} has precision {prec:.3f}")
    for r in rules:
        phrase = contiguous_phrase(r)
        if phrase is not None and set(prep.index.coverage(r)) != phrase_scan(prep.token_lists, phrase):
            fails.append(f"index coverage of {r!r} differs from a phrase scan")
    return fails


def weak_labels(weak: set[int], positives) -> list[str]:
    if weak != set(positives):
        return [f"apply_rules labels {len(weak)} sentences, P has {len(positives)}"]
    return []


def same_session(first, other) -> list[str]:
    """Fixed-seed determinism: identical rules, P and history."""
    if (first.rules, first.positives, first.history) != (other.rules, other.positives, other.history):
        return ["a repeated session returned different rules, positives or history"]
    return []
