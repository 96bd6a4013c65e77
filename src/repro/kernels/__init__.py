"""repro.kernels — hot-loop kernel dispatch with numpy and compiled tiers.

The measured-hot inner loops of the block data plane (4-wise hash
evaluation, sketch event filtering, conflict masking, chain-matrix
scoring — see ``repro profile``) live here as standalone array-in/
array-out kernels, each with two registered implementations:

- the **numpy tier** (:mod:`repro.kernels.numpy_impl`): the original
  pure-numpy code, moved out of its call sites; always available; the
  permanent differential oracle every other tier is tested against;
- the **compiled tier** (:mod:`repro.kernels.compiled_impl`): optional
  numba ``@njit(cache=True)`` twins that activate only when numba
  imports cleanly (``pip install -e .[compiled]``).

Tier selection: :class:`RunSpec`'s ``kernel_tier`` field (``"auto"`` |
``"numpy"`` | ``"compiled"``) resolves per run; ``"auto"`` takes the
compiled tier when present, ``"compiled"`` raises :class:`ReproError`
(CLI exit 2) when numba is absent.  Algorithm modules call
:func:`dispatch` — never the implementation modules directly
(staticcheck rule R10) — so every call site is tier-agnostic and the
engine can record the resolved tier plus per-kernel hit counts in
``ColoringResult.extras``.

Bit-identity is the contract: both tiers return identical arrays for
every admissible input, so colorings, pass counts, space peaks, and
random-bit counts never depend on the tier.
"""

from contextlib import contextmanager
from dataclasses import dataclass

from repro.common.exceptions import ReproError
from repro.kernels.compiled_impl import COMPILED_KERNELS, NUMBA_AVAILABLE
from repro.kernels.numpy_impl import NUMPY_KERNELS
from repro.obs.clock import perf_now

__all__ = [
    "KERNEL_TIERS",
    "KERNELS",
    "Kernel",
    "KernelRegistry",
    "active_kernel_tier",
    "compiled_available",
    "dispatch",
    "get_default_kernel_tier",
    "kernel_run_hits",
    "kernel_total_hits",
    "measure_kernels",
    "resolve_kernel_tier",
    "set_default_kernel_tier",
    "use_kernel_tier",
]

#: Valid ``RunSpec.kernel_tier`` / ``--kernel-tier`` values.
KERNEL_TIERS = ("auto", "numpy", "compiled")


@dataclass(frozen=True)
class Kernel:
    """One registered kernel: the reference impl plus the optional twin."""

    name: str
    numpy_impl: object
    compiled_impl: object | None = None

    @property
    def supports_compiled(self) -> bool:
        """Capability flag: does this kernel have a compiled twin loaded?"""
        return self.compiled_impl is not None


class KernelRegistry:
    """String-keyed kernel lookup with per-kernel capability flags."""

    def __init__(self):
        self._kernels: dict[str, Kernel] = {}

    def register(self, name: str, numpy_impl, compiled_impl=None) -> Kernel:
        if name in self._kernels:
            raise ReproError(f"kernel {name!r} is already registered")
        kernel = Kernel(name, numpy_impl, compiled_impl)
        self._kernels[name] = kernel
        return kernel

    def get(self, name: str) -> Kernel:
        try:
            return self._kernels[name]
        except KeyError:
            raise ReproError(
                f"unknown kernel {name!r}; registered: {sorted(self._kernels)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._kernels)

    def __iter__(self):
        return iter(self._kernels.values())

    def __len__(self) -> int:
        return len(self._kernels)

    def describe(self):
        """``(headers, rows)`` table of the registry, for the CLI/profiler."""
        headers = ["kernel", "numpy", "compiled"]
        rows = [
            [k.name, True, k.supports_compiled]
            for k in sorted(self._kernels.values(), key=lambda k: k.name)
        ]
        return headers, rows


#: The process-wide registry: every kernel of the block data plane.
KERNELS = KernelRegistry()
for _name, _numpy_impl in NUMPY_KERNELS.items():
    KERNELS.register(_name, _numpy_impl, COMPILED_KERNELS.get(_name))


def compiled_available() -> bool:
    """Whether the compiled tier loaded (numba imported cleanly)."""
    return NUMBA_AVAILABLE


def resolve_kernel_tier(tier: str | None) -> str:
    """Resolve a spec tier to the concrete tier that will execute.

    ``None`` means "use the process default"; ``"auto"`` takes the
    compiled tier when available, the numpy tier otherwise;
    ``"compiled"`` raises :class:`ReproError` (the CLI's exit-2 path)
    when numba is absent.
    """
    if tier is None:
        tier = _default_tier
    if tier not in KERNEL_TIERS:
        raise ReproError(
            f"unknown kernel_tier {tier!r}; valid: {list(KERNEL_TIERS)}"
        )
    if tier == "auto":
        return "compiled" if NUMBA_AVAILABLE else "numpy"
    if tier == "compiled" and not NUMBA_AVAILABLE:
        raise ReproError(
            "kernel_tier 'compiled' requires numba "
            "(pip install -e .[compiled]); the numpy tier is always "
            "available via kernel_tier='numpy' or 'auto'"
        )
    return tier


# Process-level default, used when a RunSpec leaves ``kernel_tier`` as
# None; the CLI's --kernel-tier flag sets it once per invocation
# (mirroring runner.set_default_stream).
_default_tier = "auto"

# Innermost (resolved tier, hit-count baseline) frames pushed by
# use_kernel_tier; empty at top level.
_tier_stack: list[tuple[str, dict]] = []

# Cumulative per-kernel dispatch counts for this process.
_hit_counts: dict[str, int] = {}

# When a measure_kernels() block is active, name -> [calls, seconds].
_timings: dict | None = None


def set_default_kernel_tier(tier: str) -> None:
    """Set the tier used by specs that do not pick one explicitly.

    Validates eagerly — ``"compiled"`` without numba raises here, so CLI
    callers fail fast on the standard exit-2 path.
    """
    global _default_tier
    resolve_kernel_tier(tier)  # validation (including numba presence)
    _default_tier = tier


def get_default_kernel_tier() -> str:
    """The current process-level default tier (possibly ``"auto"``)."""
    return _default_tier


def active_kernel_tier() -> str:
    """The resolved tier dispatch is serving right now."""
    if _tier_stack:
        return _tier_stack[-1][0]
    return resolve_kernel_tier(_default_tier)


@contextmanager
def use_kernel_tier(tier: str | None):
    """Activate a tier for the dynamic extent of a run.

    Yields the resolved tier.  Reentrant: nested runs (e.g. a grid cell
    inside a sweep) each get their own hit-count baseline, so
    :func:`kernel_run_hits` reports the innermost run's counts.
    """
    resolved = resolve_kernel_tier(tier)
    _tier_stack.append((resolved, dict(_hit_counts)))
    try:
        yield resolved
    finally:
        _tier_stack.pop()


def kernel_total_hits() -> dict[str, int]:
    """Cumulative per-kernel dispatch counts for this process.

    Unlike :func:`kernel_run_hits` this needs no active tier: it is the
    pull-time source for the obs plane's
    ``repro_kernel_dispatch_total{kernel=...}`` counters.
    """
    return dict(_hit_counts)


def kernel_run_hits() -> dict[str, int]:
    """Per-kernel dispatch counts since the innermost tier activation.

    Empty outside :func:`use_kernel_tier` (nothing to baseline against).
    """
    if not _tier_stack:
        return {}
    baseline = _tier_stack[-1][1]
    return {
        name: count - baseline.get(name, 0)
        for name, count in _hit_counts.items()
        if count > baseline.get(name, 0)
    }


@contextmanager
def measure_kernels():
    """Collect per-kernel wall time while the block is active.

    Yields a dict ``name -> [calls, seconds]`` that fills as kernels
    dispatch — the measurement backbone of ``repro profile``.  Timing is
    off outside the block, so steady-state dispatch stays two dict
    operations.
    """
    global _timings
    previous = _timings
    _timings = {}
    try:
        yield _timings
    finally:
        _timings = previous


def dispatch(name: str, *args):
    """Call kernel ``name`` under the active tier and count the hit."""
    kernel = KERNELS._kernels[name]
    _hit_counts[name] = _hit_counts.get(name, 0) + 1
    tier = _tier_stack[-1][0] if _tier_stack else active_kernel_tier()
    impl = kernel.numpy_impl
    if tier == "compiled" and kernel.compiled_impl is not None:
        impl = kernel.compiled_impl
    if _timings is None:
        return impl(*args)
    start = perf_now()
    out = impl(*args)
    elapsed = perf_now() - start
    cell = _timings.setdefault(name, [0, 0.0])
    cell[0] += 1
    cell[1] += elapsed
    return out
