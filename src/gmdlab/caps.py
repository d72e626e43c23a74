"""Size caps shared by the search and LP modules.

Defaults keep every operation at desk scale; raise selectively through the
GMDLAB_CAPS environment variable, e.g. GMDLAB_CAPS="trial_entries=1048576,lp_entries=16777216".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Caps:
    lp_entries: int = 1 << 23  # a Sherali-Adams LP's simplex tableau, (constraints
    # + 1) x (variables + 1) float64 entries: 64 MB at most
    sa_table_entries: int = 4_000_000  # sum of (T+1)^|S| over a sasol build's sets;
    # the benchmark's largest build (k=3, n=16, T=2) has 16,248
    trial_entries: int = 1 << 18  # approx: entries of one trial chunk, a trial
    # spanning n + (arcs or edges), refused above this, plus the quarter
    # algorithms' score row or LP rounding's n T label comparisons; the
    # 877 + 592-entry quarter trials of a 400-vertex gap instance run 178 to
    # a chunk
    test_edges: int = 300_000    # dictatorship-test instance materialization
    influence_states: int = 2_000_000


def caps_from_env(base: Caps | None = None) -> Caps:
    base = base or Caps()
    spec = os.environ.get("GMDLAB_CAPS", "")
    if not spec.strip():
        return base
    known = {f.name for f in fields(Caps)}
    overrides = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, value = part.partition("=")
        name, value = name.strip(), value.strip()
        if name not in known:
            raise ValueError(f"unknown cap {name!r} in GMDLAB_CAPS")
        if not value.isdecimal():
            raise ValueError(f"cap {name!r} in GMDLAB_CAPS needs a nonnegative integer, got {part!r}")
        overrides[name] = int(value)
    return replace(base, **overrides)
