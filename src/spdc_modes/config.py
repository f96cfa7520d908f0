"""Run configuration: strict YAML parsing into canonical internal units.

Every key is checked; unknown keys are rejected with their full dotted
path, a key repeated within one mapping is refused with its path and line,
and every accepted value is recorded with its origin ("user" or "default")
so runs can echo exactly what they used. Each quantity has exactly one key.
The crystal length (mm) and pump wavelength (nm) are converted here, once,
to um, the pump envelope's real-space FWHM to its k-space sigma, and
``pump.peaks`` with ``pump.side_amplitude`` to one field amplitude per
peak. The ``detection`` keys stay in mm and nm: :class:`DetectionGeometry`
keeps them and converts them in ``position_to_wavevector``, and
``detection.wavelength_average`` converts the filter's nm to um itself.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Hashable
from dataclasses import MISSING, dataclass, field, fields
from typing import List, Optional, Tuple, get_type_hints

import yaml

from .detection import DetectionGeometry
from .hologram import HologramSettings
from .kernel import (
    JointIntensity,
    MultiPeakParams,
    TpaKernel,
    build_multipeak,
    default_grid,
    multipeak_intensity,
)
from .optics import (
    MIN_GRID_POINTS,
    PhaseMatchConfig,
    PumpWidths,
    SellmeierAxis,
    SellmeierCoefficients,
    WavevectorGrid,
    external_signal_angle,
    fwhm_to_sigma_k,
    noncollinear_offset,
    phase_matching_width,
    refractive_indices,
)

MATCHING_WIDTH_MODES = ("derived", "equal")
# largest relative difference allowed between the derived and a declared external angle
ANGLE_CHECK_RTOL = 0.01


class ConfigError(Exception):
    """Anything wrong with a run configuration, reported with its key path."""


def _coerce(value, kind, path):
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # nan, inf, or an int past float range
            raise ConfigError(f"{path} must be a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, got {value!r}")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true or false, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, got {value!r}")
        return value
    raise AssertionError(f"unhandled kind {kind}")


class _Section:
    """One mapping level of the config, consumed key by key."""

    def __init__(self, data, path: str, provenance: list):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'top level'} must be a mapping, got {type(data).__name__}")
        self._data = dict(data)
        self._path = path
        self._prov = provenance

    def _child_path(self, key: str) -> str:
        return f"{self._path}.{key}" if self._path else key

    def has(self, key: str) -> bool:
        return key in self._data

    def take(self, key: str, default=MISSING, kind=None):
        path = self._child_path(key)
        if key in self._data:
            value, source = self._data.pop(key), "user"
        elif default is MISSING:
            raise ConfigError(f"missing required key: {path}")
        else:
            value, source = default, "default"
        # an explicit null stands only for a key whose default is null
        if kind is not None and not (value is None and default is None):
            value = _coerce(value, kind, path)
        self._prov.append((path, value, source))
        return value

    def section(self, key: str, required: bool = False) -> "_Section":
        path = self._child_path(key)
        if key in self._data:
            return _Section(self._data.pop(key), path, self._prov)
        if required:
            raise ConfigError(f"missing required section: {path}")
        return _Section({}, path, self._prov)

    def finish(self) -> None:
        if self._data:
            keys = ", ".join(self._child_path(k) for k in sorted(self._data))
            raise ConfigError(f"unknown keys: {keys}")


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` whose mappings refuse a repeated key.

    ``safe_load`` keeps the last of two equal keys without a word. Each
    mapping records its values' dotted paths, so a nested mapping, built
    after its parent, names the full path of a key it repeats.
    """

    def __init__(self, stream):
        super().__init__(stream)
        self._paths: dict = {}

    def construct_mapping(self, node, deep=False):
        prefix = self._paths.get(node, "")
        seen = set()
        for key_node, value_node in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue  # a merge key (<<) brings defaults that the keys beside it override
            key = self.construct_object(key_node, deep=True)
            path = f"{prefix}.{key}" if prefix else str(key)
            if isinstance(key, Hashable):
                if key in seen:
                    raise ConfigError(f"repeated key: {path} (line {key_node.start_mark.line + 1})")
                seen.add(key)
            self._paths[value_node] = path
        return super().construct_mapping(node, deep)


def _take_fields(sec: _Section, cls, **defaults):
    """``cls`` built from one key per dataclass field, then the section closed.

    Each key takes its field's type and default; ``defaults`` overrides a
    field's default, and a field with neither is required.
    """
    kinds = get_type_hints(cls)
    obj = cls(**{f.name: sec.take(f.name, defaults.get(f.name, f.default), kind=kinds[f.name])
                 for f in fields(cls)})
    sec.finish()
    return obj


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Fully validated run parameters in canonical units.

    ``pump`` is resolved at parse time: its peak amplitudes, offset, both
    Gaussian widths and emission branch are final. ``emission_angle_rad``
    is the internal emission angle when the offset was derived from a
    noncollinear geometry, else None.
    """

    phase_match: PhaseMatchConfig
    pump: MultiPeakParams
    emission_angle_rad: Optional[float]
    grid_points: int
    span_sigmas: float
    geometry: DetectionGeometry
    hologram: HologramSettings
    output_dir: str
    provenance: Tuple[tuple, ...] = field(default_factory=tuple)

    def grid(self) -> WavevectorGrid:
        """The run's signal grid; the idler grid is its mirror."""
        return default_grid(self.pump, self.grid_points, self.span_sigmas)

    def build_kernel(self) -> TpaKernel:
        return build_multipeak(self.pump, self.grid())

    def intensity(self) -> JointIntensity:
        """|F|^2 of :meth:`build_kernel`, without the joint array."""
        return multipeak_intensity(self.pump, self.grid())

    def normalized(self) -> dict:
        """Nested dict of every accepted key with its resolved value."""
        tree: dict = {}
        for path, value, _source in self.provenance:
            node = tree
            parts = path.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = value
        return tree

    def provenance_lines(self) -> List[str]:
        return [f"{path} = {value!r}  [{source}]" for path, value, source in self.provenance]


def parse_config(data: dict) -> RunConfig:
    """Validate a config mapping and resolve it to canonical units."""
    prov: list = []
    root = _Section(data, "", prov)

    pm = root.section("phase_match", required=True)
    crystal_um = pm.take("crystal_length_mm", kind=float) * 1e3
    pump_um = pm.take("pump_wavelength_nm", kind=float) * 1e-3
    regime = pm.take("regime", default="noncollinear", kind=str)
    offset_override = pm.take("offset_override_um_inv", default=None, kind=float)

    has_indices = pm.has("indices")
    has_sellmeier = pm.has("sellmeier")
    if has_indices == has_sellmeier:
        raise ConfigError(
            "phase_match needs exactly one of phase_match.indices or phase_match.sellmeier"
        )

    sellmeier = None
    declared_external = None
    if has_indices:
        idx = pm.section("indices", required=True)
        n_signal = idx.take("signal", kind=float)
        n_pump = idx.take("pump", kind=float)
        idx.finish()
    else:
        sm = pm.section("sellmeier", required=True)
        ordinary = _take_fields(sm.section("ordinary", required=True), SellmeierAxis)
        extraordinary = _take_fields(sm.section("extraordinary", required=True), SellmeierAxis)
        valid = sm.take("valid_range_um", default=[0.2, 1.1])
        if not isinstance(valid, (list, tuple)) or len(valid) != 2:
            raise ConfigError("phase_match.sellmeier.valid_range_um must be [low, high]")
        valid = tuple(_coerce(v, float, "phase_match.sellmeier.valid_range_um") for v in valid)
        sellmeier = SellmeierCoefficients(ordinary, extraordinary, valid)
        cut_angle_rad = math.radians(sm.take("cut_angle_deg", kind=float))
        declared_external = sm.take("external_signal_angle_deg", default=None, kind=float)
        sm.finish()
    pm.finish()

    try:
        if sellmeier is not None:
            n_signal, _ = refractive_indices(sellmeier, 2.0 * pump_um * 1e3)
            _, n_pump = refractive_indices(sellmeier, pump_um * 1e3, cut_angle_rad)
        phase_match = PhaseMatchConfig(
            crystal_length_um=crystal_um,
            pump_wavelength_um=pump_um,
            n_signal=n_signal,
            n_pump=n_pump,
            regime=regime,
            dispersion=sellmeier,
        )
        if declared_external is not None:
            derived = math.degrees(external_signal_angle(phase_match))
            if abs(derived - declared_external) > ANGLE_CHECK_RTOL * abs(declared_external):
                raise ConfigError(
                    f"dispersion data yields an external emission angle of {derived:.3f} deg, "
                    f"but the config declares {declared_external:.3f} deg; "
                    "fix the cut angle or the declared angle"
                )
    except ValueError as exc:
        raise ConfigError(f"phase_match: {exc}") from exc

    pump_sec = root.section("pump", required=True)
    n_peaks = pump_sec.take("peaks", default=1, kind=int)
    fwhm = pump_sec.take("envelope_fwhm_um", kind=float)
    if fwhm <= 0:
        raise ConfigError(f"pump.envelope_fwhm_um must be positive, got {fwhm}")
    sigma_pump = fwhm_to_sigma_k(fwhm)
    peak_spacing = pump_sec.take("peak_spacing_um_inv",
                                 default=None if n_peaks > 1 else 0.0, kind=float)
    if peak_spacing is None:
        raise ConfigError("pump.peak_spacing_um_inv is required when pump.peaks > 1")
    side = pump_sec.take("side_amplitude", default=None, kind=float)
    if side is not None and n_peaks != 3:
        raise ConfigError("side_amplitude only applies to 3-peak pumps")
    if side is not None and not 0.0 < side <= 1.0:
        raise ConfigError(f"side_amplitude must be in (0, 1], got {side}")
    try:
        amplitudes = (1.0,) * n_peaks if side is None else (side, 1.0, side)
    except (OverflowError, MemoryError):
        raise ConfigError(f"pump.peaks = {n_peaks} is too many to hold") from None
    matching = pump_sec.take("matching_width", default="derived")
    if isinstance(matching, str):
        if matching not in MATCHING_WIDTH_MODES:
            raise ConfigError(
                f"pump.matching_width must be one of {MATCHING_WIDTH_MODES} or a number, "
                f"got {matching!r}"
            )
    elif isinstance(matching, bool) or not isinstance(matching, (int, float)):
        raise ConfigError(f"pump.matching_width must be a mode name or a number, got {matching!r}")
    else:
        matching = _coerce(matching, float, "pump.matching_width")
        if matching <= 0:
            raise ConfigError(f"explicit pump.matching_width must be positive, got {matching}")
    pump_sec.finish()

    grid = root.section("grid")
    grid_points = grid.take("points", default=512, kind=int)
    span_sigmas = grid.take("span_sigmas", default=5.0, kind=float)
    branch = "both" if grid.take("both_branches", default=False, kind=bool) else "+"
    grid.finish()
    if grid_points < MIN_GRID_POINTS:
        raise ConfigError(f"grid.points must be at least {MIN_GRID_POINTS}, got {grid_points}")
    if span_sigmas <= 0:
        raise ConfigError(f"grid.span_sigmas must be positive, got {span_sigmas}")

    try:
        # the filter sits on the degenerate wavelength unless the config says otherwise
        geometry = _take_fields(root.section("detection"), DetectionGeometry,
                                central_wavelength_nm=2.0 * pump_um * 1e3)
    except ValueError as exc:
        raise ConfigError(f"detection: {exc}") from exc
    try:
        hologram = _take_fields(root.section("hologram"), HologramSettings)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    out = root.section("output")
    output_dir = out.take("directory", default="out", kind=str)
    out.finish()

    root.finish()

    # resolve the pump last, so it fails fast on parameter combinations the
    # builders would reject only after every key has been checked
    try:
        angle = None
        if offset_override is not None:
            offset = offset_override
        elif regime == "collinear":
            offset = 0.0
        else:
            offset, angle = noncollinear_offset(phase_match)
        if matching == "equal":
            sigma_match = sigma_pump
        elif matching == "derived":
            sigma_match = phase_matching_width(phase_match)
        else:
            sigma_match = matching
        pump = MultiPeakParams(amplitudes, peak_spacing, offset,
                               PumpWidths(sigma_pump, sigma_match), branch)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        phase_match=phase_match,
        pump=pump,
        emission_angle_rad=angle,
        grid_points=grid_points,
        span_sigmas=span_sigmas,
        geometry=geometry,
        hologram=hologram,
        output_dir=output_dir,
        provenance=tuple(prov),
    )


def load_config(path: str, overrides: Optional[dict] = None) -> RunConfig:
    """Parse the YAML file at ``path`` after writing ``overrides`` ({"grid.points": 64})
    over its keys, so each override gets its key's checks and provenance."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse") from None
    except yaml.YAMLError as exc:
        # one line: the problem at its 1-based line and column, else the error's lines joined
        mark = getattr(exc, "problem_mark", None)
        problem = (f"{exc.problem} (line {mark.line + 1}, column {mark.column + 1})" if mark
                   else "; ".join(line.strip() for line in str(exc).splitlines()))
        raise ConfigError(f"config {path} is not valid YAML: {problem}") from exc
    if data is None:
        raise ConfigError(f"config {path} is empty")
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a mapping at top level")
    for key, value in (overrides or {}).items():
        section, name = key.split(".")
        node = data.get(section)
        if node is None or isinstance(node, dict):
            data[section] = {**(node or {}), name: value}
    return parse_config(data)
