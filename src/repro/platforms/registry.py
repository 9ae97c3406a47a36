"""Declarative platform registry and spec-string grammar.

Everything that can simulate a workload — the CEGMA accelerator model,
its ablation variants, the HyGCN/AWB-GCN baselines, and the PyG software
models — is a *platform*: any object with a
``simulate_batches(traces) -> PlatformResult`` method (the
:class:`Platform` protocol). The :class:`PlatformRegistry` maps names to
platform builders.

Spec strings
------------
Accelerator platforms registered with a
:class:`~repro.sim.config.HardwareConfig` factory accept **spec
strings**, so hardware sweeps and ablations are data, not code::

    CEGMA                                   # the stock Table III config
    CEGMA@bandwidth_gbps=512                # one override
    CEGMA@num_pes=1024,buffer_kb=256        # several overrides

Grammar: ``NAME[@key=value[,key=value...]]``. Keys are either scalar
fields of ``HardwareConfig.to_dict()`` (``mac_units``,
``input_buffer_bytes``, ``dram_bandwidth_bytes_per_cycle``,
``cgc_enabled``, ...) or one of the ergonomic aliases:

- ``bandwidth_gbps`` — DRAM bandwidth in GB/s at the 1 GHz clock
  (numerically equal to ``dram_bandwidth_bytes_per_cycle``);
- ``num_pes`` — sets ``mac_units`` *and* ``aggregation_lanes``;
- ``buffer_kb`` — ``input_buffer_bytes`` in KiB.

Values are coerced to the field's type (``true``/``false`` for bools).
Overrides are raw field sets on top of the stock config; coupled fields
(e.g. ``overlaps_memory`` following ``cgc_enabled``) are not re-derived
— override them explicitly when needed.
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
)

from ..sim.config import HardwareConfig
from ..sim.engine import AcceleratorSimulator, PlatformResult
from ..trace.profiler import BatchTrace

__all__ = [
    "Platform",
    "PlatformEntry",
    "PlatformRegistry",
    "ParsedSpec",
    "REGISTRY",
    "build_platform",
    "register_platform",
    "register_accelerator",
]


class Platform(Protocol):
    """Anything that can simulate profiled batches of graph pairs."""

    def simulate_batches(
        self, batch_traces: Sequence[BatchTrace]
    ) -> PlatformResult:  # pragma: no cover - protocol signature
        ...


# Spec-string aliases: alias -> list of (field, transform) assignments.
_SPEC_ALIASES: Dict[str, Tuple[Tuple[str, Callable[[float], object]], ...]] = {
    "bandwidth_gbps": (
        ("dram_bandwidth_bytes_per_cycle", float),
    ),
    "num_pes": (
        ("mac_units", lambda v: int(round(v))),
        ("aggregation_lanes", lambda v: int(round(v))),
    ),
    "buffer_kb": (
        ("input_buffer_bytes", lambda v: int(round(v * 1024))),
    ),
}

# Fields of HardwareConfig.to_dict() that spec strings may not touch:
# "name" is derived from the spec itself, "emf" is a nested model.
_UNSETTABLE_FIELDS = ("name", "emf")


class ParsedSpec:
    """A decomposed spec string: base platform plus typed overrides."""

    __slots__ = ("base", "overrides")

    def __init__(self, base: str, overrides: Dict[str, object]) -> None:
        self.base = base
        self.overrides = overrides

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParsedSpec({self.base!r}, {self.overrides!r})"


class PlatformEntry:
    """One registered platform: a builder, optionally configurable."""

    __slots__ = ("name", "builder", "config_factory")

    def __init__(
        self,
        name: str,
        builder: Callable[[], Platform],
        config_factory: Optional[Callable[[], HardwareConfig]] = None,
    ) -> None:
        self.name = name
        self.builder = builder
        self.config_factory = config_factory

    @property
    def configurable(self) -> bool:
        return self.config_factory is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlatformEntry({self.name!r}, "
            f"configurable={self.configurable})"
        )


def _format_value(value: object) -> str:
    """Canonical spec-string rendering of one override value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return str(int(value)) if value.is_integer() else repr(value)
    return str(value)


def _coerce(raw: str, current: object, key: str) -> object:
    """Parse ``raw`` to the type of the field's current value."""
    try:
        if isinstance(current, bool):
            lowered = raw.strip().lower()
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except ValueError:
        raise ValueError(
            f"cannot parse {raw!r} as a value for spec field {key!r}"
        ) from None
    return raw


class PlatformRegistry:
    """Name -> platform-builder mapping with spec-string support."""

    def __init__(self) -> None:
        self._entries: Dict[str, PlatformEntry] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        builder: Optional[Callable[[], Platform]] = None,
        *,
        config_factory: Optional[Callable[[], HardwareConfig]] = None,
        overwrite: bool = False,
    ):
        """Register a platform builder; usable directly or as a decorator.

        Direct form::

            REGISTRY.register("PyG-CPU", pyg_cpu_model)

        Decorator form::

            @REGISTRY.register("MyPlatform")
            def build_my_platform():
                return MySimulator()
        """
        if builder is None:
            def decorator(func: Callable[[], Platform]):
                self.register(
                    name,
                    func,
                    config_factory=config_factory,
                    overwrite=overwrite,
                )
                return func

            return decorator
        if "@" in name or "," in name or "=" in name:
            raise ValueError(
                f"platform name {name!r} may not contain '@', ',' or '='"
            )
        if name in self._entries and not overwrite:
            raise ValueError(
                f"platform {name!r} already registered; pass overwrite=True"
            )
        self._entries[name] = PlatformEntry(name, builder, config_factory)
        return builder

    def register_accelerator(
        self,
        name: str,
        config_factory: Optional[Callable[[], HardwareConfig]] = None,
        *,
        overwrite: bool = False,
    ):
        """Register an accelerator from a ``HardwareConfig`` factory.

        The platform builds as ``AcceleratorSimulator(config_factory())``
        and accepts spec-string overrides. Usable directly
        (``register_accelerator("CEGMA", cegma_config)``) or as a
        decorator over the config factory.
        """
        if config_factory is None:
            def decorator(func: Callable[[], HardwareConfig]):
                self.register_accelerator(name, func, overwrite=overwrite)
                return func

            return decorator
        self.register(
            name,
            lambda: AcceleratorSimulator(config_factory()),
            config_factory=config_factory,
            overwrite=overwrite,
        )
        return config_factory

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, spec: object) -> bool:
        if not isinstance(spec, str):
            return False
        try:
            self.parse(spec)
        except (KeyError, ValueError):
            return False
        return True

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, name: str) -> PlatformEntry:
        """The registration for a *base* name (no spec overrides)."""
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(
                f"unknown platform {name!r}; known: {self.names()}"
            ) from None

    def spec_fields(self, name: str) -> Tuple[str, ...]:
        """Field names a spec string may override for this platform."""
        entry = self.entry(name)
        if not entry.configurable:
            return ()
        payload = entry.config_factory().to_dict()
        fields = [k for k in payload if k not in _UNSETTABLE_FIELDS]
        return tuple(sorted(fields) + sorted(_SPEC_ALIASES))

    # ------------------------------------------------------------------
    # Spec strings
    # ------------------------------------------------------------------
    def parse(self, spec: str) -> ParsedSpec:
        """Decompose ``NAME@key=value,...`` into typed field overrides.

        Raises ``KeyError`` for an unknown base platform and
        ``ValueError`` for a malformed or inapplicable override.
        """
        base, sep, rest = spec.partition("@")
        base = base.strip()
        entry = self.entry(base)
        if not sep:
            return ParsedSpec(base, {})
        if not entry.configurable:
            raise ValueError(
                f"platform {base!r} does not take spec overrides "
                "(it has no HardwareConfig)"
            )
        payload = entry.config_factory().to_dict()
        settable = {
            key: value
            for key, value in payload.items()
            if key not in _UNSETTABLE_FIELDS
        }
        overrides: Dict[str, object] = {}
        for item in rest.split(","):
            key, eq, raw = item.partition("=")
            key = key.strip()
            raw = raw.strip()
            if not eq or not key or not raw:
                raise ValueError(
                    f"bad spec override {item!r} in {spec!r}; "
                    "expected key=value"
                )
            if key in _SPEC_ALIASES:
                numeric = _coerce(raw, 0.0, key)
                for field, transform in _SPEC_ALIASES[key]:
                    overrides[field] = transform(numeric)
            elif key in settable:
                overrides[key] = _coerce(raw, settable[key], key)
            else:
                raise ValueError(
                    f"unknown spec field {key!r} for platform {base!r}; "
                    f"valid fields: {list(self.spec_fields(base))}"
                )
        return ParsedSpec(base, overrides)

    def format_spec(self, base: str, overrides: Dict[str, object]) -> str:
        """The canonical spec string for a base name plus overrides."""
        parsed = self.parse(base)  # validates the base name
        if not overrides:
            return parsed.base
        rendered = ",".join(
            f"{key}={_format_value(value)}"
            for key, value in sorted(overrides.items())
        )
        return f"{parsed.base}@{rendered}"

    def canonical(self, spec: str) -> str:
        """Normalized form of a spec string (sorted, aliases resolved)."""
        parsed = self.parse(spec)
        return self.format_spec(parsed.base, parsed.overrides)

    # ------------------------------------------------------------------
    # Building
    # ------------------------------------------------------------------
    def config(self, spec: str) -> HardwareConfig:
        """The (possibly derived) ``HardwareConfig`` for a spec string.

        Raises ``ValueError`` for platforms without a hardware config.
        """
        parsed = self.parse(spec)
        entry = self.entry(parsed.base)
        if not entry.configurable:
            raise ValueError(
                f"platform {parsed.base!r} has no HardwareConfig"
            )
        config = entry.config_factory()
        if not parsed.overrides:
            return config
        payload = config.to_dict()
        payload.update(parsed.overrides)
        payload["name"] = self.format_spec(parsed.base, parsed.overrides)
        return HardwareConfig.from_dict(payload)

    def config_or_none(self, spec: str) -> Optional[HardwareConfig]:
        """Like :meth:`config` but ``None`` for software platforms."""
        parsed = self.parse(spec)
        if not self.entry(parsed.base).configurable:
            return None
        return self.config(spec)

    def build(self, spec: str) -> Platform:
        """Instantiate the platform a spec string describes."""
        parsed = self.parse(spec)
        entry = self.entry(parsed.base)
        if not parsed.overrides:
            return entry.builder()
        return AcceleratorSimulator(self.config(spec))

    def builder(self, spec: str) -> Callable[[], Platform]:
        """A zero-argument builder for the spec (validated eagerly)."""
        self.parse(spec)
        return lambda: self.build(spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlatformRegistry({self.names()})"


#: The process-wide registry; stock platforms are registered by
#: :mod:`repro.platforms.builtin` when the package is imported.
REGISTRY = PlatformRegistry()


def build_platform(spec: str) -> Platform:
    """Module-level convenience for ``REGISTRY.build``."""
    return REGISTRY.build(spec)


def register_platform(name: str, builder=None, **kwargs):
    """Module-level convenience for ``REGISTRY.register``."""
    return REGISTRY.register(name, builder, **kwargs)


def register_accelerator(name: str, config_factory=None, **kwargs):
    """Module-level convenience for ``REGISTRY.register_accelerator``."""
    return REGISTRY.register_accelerator(name, config_factory, **kwargs)
