"""Size caps shared by the search and LP modules.

Defaults keep every operation at desk scale; raise selectively through the
GMDLAB_CAPS environment variable, e.g. GMDLAB_CAPS="opt_gmd_n=28,lp_variables=5000".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Caps:
    opt_gmd_n: int = 24          # zero-set enumeration explores 2^n sets
    brute_states: int = 2_000_000  # full (T+1)^n labeling enumeration
    gp_grid_points: int = 2_000_000
    sa_n: int = 8
    sa_rounds: int = 3
    sa_domain: int = 5
    lp_variables: int = 3_000
    sa_table_entries: int = 4_000_000  # sum of (T+1)^|S| over a sasol build's sets;
    # the benchmark's largest build (k=3, n=16, T=2) has 16,248
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
