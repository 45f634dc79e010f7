"""Lint configuration: which rules apply where.

The defaults encode this repository's invariants; fixture files (and
future out-of-tree users) can re-scope individual files with the
``# simlint: module=<dotted.name>`` pragma, which overrides the module
identity the scoping below is matched against.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_layers() -> dict[str, int]:
    # The layer DAG, low to high.  A module may import same-or-lower
    # layers only; packages not listed here (obs, metrics, faults, lint)
    # are cross-cutting infrastructure and unconstrained.
    return {
        "repro.simkernel": 0,
        "repro.netsim": 1,
        "repro.storage": 2,
        "repro.repository": 2,
        "repro.hypervisor": 2,
        "repro.workloads": 2,
        "repro.core": 3,
        "repro.cluster": 4,
        "repro.experiments": 5,
        "repro.cli": 6,
    }


def _default_obs_layers() -> dict[str, int]:
    # The observability sub-DAG: the diff engine consumes the other
    # analysis products (flight summaries, critical paths, profiler
    # trees) and must never be imported back by their producers — that
    # would make every artifact schema circularly depend on its own
    # differ.  Everything else under ``repro.obs`` shares the base rank
    # on purpose: analyze and causal are mutually recursive by design
    # (causal borrows the analyzer's lane maps, the analyzer embeds
    # critical paths).
    # The series recorder is listed explicitly even though the
    # ``repro.obs`` prefix already ranks it: its loaders are a
    # sanctioned *input* of the diff engine (series docs diff like any
    # other artifact), so the asymmetry — diff may import series,
    # series may never import diff — deserves a named row.
    return {
        "repro.obs": 0,
        "repro.obs.series": 0,
        "repro.obs.diff": 1,
    }


def _layer_lookup(module: str, layers: dict[str, int]) -> int | None:
    best = None
    best_len = -1
    for prefix, rank in layers.items():
        if module == prefix or module.startswith(prefix + "."):
            if len(prefix) > best_len:
                best, best_len = rank, len(prefix)
    return best


@dataclass(frozen=True)
class LintConfig:
    """Scoping knobs for the five rule families."""

    #: D rules apply to modules under these prefixes: the simulation
    #: stack proper, where any nondeterminism breaks bit-identical reruns.
    determinism_modules: tuple[str, ...] = (
        "repro.simkernel",
        "repro.netsim",
        "repro.core",
        "repro.hypervisor",
        "repro.workloads",
        "repro.obs",
        "repro.obs.series",
        # The byte-exactness harnesses themselves: suites that compare
        # runs bit-for-bit must not be a source of nondeterminism.
        "tests.differential",
        "tests.golden",
    )

    #: Sanctioned host-time islands inside the determinism scope: modules
    #: whose *job* is reading the host clock (the self-profiler).  D101/
    #: D102 (wall/calendar time) are waived here — host timing is what
    #: they measure, and it never feeds back into simulation state — but
    #: D103/D104 (randomness, hash-order iteration) still apply in full.
    #: Individual files outside these prefixes can opt in with a
    #: ``# simlint: host-time`` pragma.
    host_time_modules: tuple[str, ...] = (
        "repro.obs.prof",
    )

    #: F rules (float-taint) apply to these modules (plus any carrying a
    #: ``# simlint: exact`` pragma — now purely a scope declaration): the
    #: Fraction-exact accounting code.
    exact_modules: tuple[str, ...] = (
        "repro.obs.analyze.attribution",
        "repro.obs.causal.critical",
        "repro.obs.causal.whatif",
        "repro.obs.diff.delta",
        "repro.obs.series.conserve",
    )

    #: K rules apply to generator functions in modules under these
    #: prefixes — anything that may run as a simulation process.
    kernel_modules: tuple[str, ...] = (
        "repro.simkernel",
        "repro.netsim",
        "repro.core",
        "repro.hypervisor",
        "repro.workloads",
        "repro.storage",
        "repro.repository",
        "repro.cluster",
    )

    #: P rules (probe purity) apply to modules under these prefixes —
    #: everywhere the telemetry hooks are planted.  The kernel scope plus
    #: the fault injector: a probe block in any simulation package must
    #: be observe-only.
    probe_modules: tuple[str, ...] = (
        "repro.simkernel",
        "repro.netsim",
        "repro.core",
        "repro.hypervisor",
        "repro.workloads",
        "repro.storage",
        "repro.repository",
        "repro.cluster",
        "repro.faults",
    )

    #: Final attribute segments identifying telemetry handles for the P
    #: rules: ``pb = self.env.probe`` makes ``pb`` a probe handle, and
    #: any call rooted at a handle (or reading through one of these
    #: attributes) is sanctioned inside a probe block.  The sink names
    #: stay listed so P701-P703 still police a sink read that P704 flags.
    probe_attrs: tuple[str, ...] = (
        "probe",
        "profiler",
        "series",
        "tracer",
        "metrics",
    )

    #: Layer ranks for the S rules (longest-prefix match).
    layers: dict[str, int] = field(default_factory=_default_layers)

    #: Sub-DAG inside the (globally unranked) obs package, for S502.
    obs_layers: dict[str, int] = field(default_factory=_default_obs_layers)

    #: Receiver-name suffixes identifying the byte-moving surfaces for
    #: the C rules: ``<receiver>.<method>(...)`` must pass the required
    #: keywords explicitly when the receiver's final attribute segment
    #: matches (exactly, or with a ``_`` prefix word, e.g.
    #: ``traffic_meter``).
    fabric_receivers: tuple[str, ...] = ("fabric",)
    repo_receivers: tuple[str, ...] = ("repo", "repository")
    meter_receivers: tuple[str, ...] = ("meter",)

    def layer_of(self, module: str) -> int | None:
        """Layer rank of ``module`` by longest prefix match, if mapped."""
        return _layer_lookup(module, self.layers)

    def obs_layer_of(self, module: str) -> int | None:
        """Rank of ``module`` in the obs sub-DAG, if it lives there."""
        return _layer_lookup(module, self.obs_layers)


DEFAULT_CONFIG = LintConfig()


def in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(
        module == p or module.startswith(p + ".") for p in prefixes
    )
