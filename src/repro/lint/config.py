"""Per-module tagging: which invariants bind where.

The paper's math guarantees the repo's speedups only while the code
keeps its discipline (ROADMAP "Keep it honest").  This module is the
machine-readable form of that contract: fnmatch patterns over posix
paths *relative to the package root* (``src/repro``) tag each module
with the rule scopes that apply to it, and
:data:`FRACTION_BOUNDARY_FUNCTIONS` names the few functions that are
*allowed* to touch :class:`~fractions.Fraction` inside a hot module --
the interning constructors and spec-fallback branches that form the
documented integer/Fraction boundary.

One-off sites inside otherwise-hot functions use the inline pragma
(``# lint: allow[rule] -- reason``) instead; see ``docs/LINTING.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Dict, FrozenSet, Sequence, Set, Tuple

#: Modules whose round loops are the measured hot paths: no Fraction
#: construction outside the boundary whitelist (rule fraction-hot-path).
HOT_PATH_MODULES: Tuple[str, ...] = (
    "ring/backends.py",
    "ring/arrayops.py",
    "analysis/int_equations.py",
    "protocols/policies/*.py",
    # The worker pools only ship specs and result rows, whose
    # rationals are already "p/q" strings; a Fraction here would mean
    # the pool layer started parsing the payloads it passes through.
    "parallel/*.py",
    # The run store sits on every cached fleet's hot path and handles
    # results only as their JSON payloads ("p/q" strings); a Fraction
    # here would mean a payload was parsed where it should have been
    # passed through byte-identically.
    "store/*.py",
    # The fault layer rewrites direction vectors inside the per-round
    # injection seam and adjudicates channel slots; it works purely on
    # enums, ints and bools -- a Fraction here would mean adversarial
    # state leaked into the kinematics it is supposed to sit above.
    "faults/*.py",
)

#: Modules whose arithmetic feeds the Z/(2D) tick grid: float literals
#: and int/int true division are taint (rule float-taint).
TICK_GRID_MODULES: Tuple[str, ...] = ("ring/*.py",)

#: Native-policy modules: decide()/finalize/stop-predicate bodies must
#: stay columnar (rule per-agent-loop).
NATIVE_POLICY_MODULES: Tuple[str, ...] = ("protocols/policies/*.py",)

#: The single module allowed to import numpy; everything else goes
#: through repro.ring.arrayops.get_numpy (rule numpy-gate).
NUMPY_GATE_MODULE = "ring/arrayops.py"

#: Functions allowed to construct Fractions inside hot modules: the
#: interning constructors and the Fraction-spec fallback branches that
#: form the documented integer boundary.  Keyed by module path; values
#: are dotted qualnames within the module.
FRACTION_BOUNDARY_FUNCTIONS: Dict[str, FrozenSet[str]] = {
    "ring/backends.py": frozenset({
        # The interning helper behind LatticeBackend._frac1/_frac2 and
        # fused-span reads -- the only mint for observation rationals.
        "_intern",
        # Observation materialisation: the intern-miss constructor
        # sites of the per-round observation caches.
        "LatticeBackend.execute_round",
    }),
    "analysis/int_equations.py": frozenset({
        # solve() computes every gap as an integer numerator over one
        # common denominator and mints a Fraction only on an intern
        # miss; the dict is shared by all agents of a discovery.
        "IntEquationSystem.solve",
        # cross_check= shadow: mirrors rows into the Fraction spec
        # engine on purpose.
        "IntEquationSystem._spec_equation",
    }),
    "protocols/policies/base.py": frozenset({
        # Common-frame conversion for the scalar (non-columnar) paths.
        "common_dists",
    }),
    "protocols/policies/distances.py": frozenset({
        # Materialised-round fallback: recovers numerators from
        # interned Fraction observations.
        "_round_columns",
    }),
    "protocols/policies/location_discovery.py": frozenset({
        # Lazy gap columns materialise interned Fractions on read.
        "_GapHarvest.column",
        # Slot-0 predicate value on the materialised fallback path.
        "_slot0_common",
        # Gap-block interning plus the eager Fraction-spec harvest.
        "_harvest_block",
    }),
}

#: Method names whose bodies the per-agent-loop rule inspects.
POLICY_LOOP_SCOPES: FrozenSet[str] = frozenset({"decide", "finalize"})

#: Function-name suffixes treated as speculative stop predicates (in
#: addition to functions literally wired into SpeculativeStretch).
PREDICATE_NAME_MARKERS: Tuple[str, ...] = ("_predicate", "_stop")
PREDICATE_NAMES: FrozenSet[str] = frozenset({"stop"})

#: Names that root simulation state inside a stop predicate; storing
#: through them (or calling mutators on them) breaks the read-only
#: predicate contract (rule speculative-contract).
SPECULATIVE_GUARDED_NAMES: FrozenSet[str] = frozenset({
    "state", "sched", "scheduler", "population", "pop", "sim",
    "simulator", "backend",
})

#: ``self.<attr>`` chains with these attrs are guarded the same way.
SPECULATIVE_GUARDED_SELF_ATTRS: FrozenSet[str] = frozenset({
    "sched", "scheduler", "population", "state", "sim", "simulator",
    "backend",
})

#: Method names (exact) that mutate their receiver.
MUTATING_METHOD_NAMES: FrozenSet[str] = frozenset({
    "append", "extend", "insert", "remove", "discard", "clear",
    "update", "sort", "reverse", "write", "pop", "popleft", "push",
    "add",
})

#: Method-name prefixes that mutate their receiver.
MUTATING_METHOD_PREFIXES: Tuple[str, ...] = (
    "set_", "push_", "commit", "apply_", "record_", "skip_", "run_",
    "advance", "resync", "rotate_", "mutate",
)

#: Module-level ``random.<fn>`` calls that read or reseed the shared
#: global generator (rule nondeterminism).  Seeded ``random.Random(x)``
#: instances are the sanctioned source of randomness.
GLOBAL_RANDOM_BANNED: FrozenSet[str] = frozenset({
    "random", "seed", "randint", "randrange", "choice", "choices",
    "shuffle", "sample", "uniform", "getrandbits", "betavariate",
    "gauss", "normalvariate", "vonmisesvariate", "expovariate",
    "triangular",
})

#: Wall-clock reads: banned everywhere on RunReport-producing paths.
WALL_CLOCK_ATTRS: FrozenSet[str] = frozenset({"time", "time_ns"})


def matches(path: str, patterns: Sequence[str]) -> bool:
    """Whether the package-relative posix ``path`` matches any pattern."""
    return any(fnmatch(path, pattern) for pattern in patterns)


@dataclass(frozen=True)
class LintConfig:
    """The rule scoping knobs, overridable for tests and fixtures."""

    hot_path_modules: Tuple[str, ...] = HOT_PATH_MODULES
    tick_grid_modules: Tuple[str, ...] = TICK_GRID_MODULES
    native_policy_modules: Tuple[str, ...] = NATIVE_POLICY_MODULES
    numpy_gate_module: str = NUMPY_GATE_MODULE
    fraction_boundary: Dict[str, FrozenSet[str]] = field(
        default_factory=lambda: dict(FRACTION_BOUNDARY_FUNCTIONS)
    )

    def is_hot(self, path: str) -> bool:
        return matches(path, self.hot_path_modules)

    def is_tick_grid(self, path: str) -> bool:
        return matches(path, self.tick_grid_modules)

    def is_native_policy(self, path: str) -> bool:
        return matches(path, self.native_policy_modules)

    def is_numpy_gate(self, path: str) -> bool:
        return path == self.numpy_gate_module

    def fraction_whitelist(self, path: str) -> FrozenSet[str]:
        return self.fraction_boundary.get(path, frozenset())


DEFAULT_CONFIG = LintConfig()
