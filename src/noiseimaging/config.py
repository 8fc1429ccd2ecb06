"""Run configuration: a flat, diff-friendly key = value file with sections.

The file format is line-based ASCII: `[section]` headers, `key = value`
pairs, `#` comments and blank lines.  Values round-trip losslessly through
save/load (floats are written with repr).  Unknown sections or keys are
rejected with field-level messages.
"""

import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .noise import NoiseModelError, TwinBeamParams, calibrate_r
from .traces import AcquisitionConfig, TraceError

# fine scan near alignment (overlap 1 down to 0.99) for the high-overlap
# sensitivity average, coarse tail across the full range for the curve shape
DEFAULT_ANGLES_DEG = (
    0.0, 0.09, 0.18, 0.27, 0.36, 0.45,
    5.4, 7.2, 9.0, 13.5, 20.25, 27.0, 33.75, 39.6, 45.0,
)

# float64 values in the largest array numpy can address: past intp-max bytes
# it raises ValueError, where a size that only exceeds memory raises MemoryError
_MAX_FLOATS = np.iinfo(np.intp).max // 8


class ConfigError(ValueError):
    """Raised with a field-qualified message for invalid configuration."""

    def __init__(self, field_name, message):
        self.field = field_name
        super().__init__("%s: %s" % (field_name, message))


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on, seed included."""

    # source / detection chain
    squeezing_db_detected: float = 2.2
    r: float = float("nan")            # NaN: derive from squeezing_db_detected
    t_probe: float = 1.0
    t_conj: float = 1.0
    lock_noise: float = 0.0
    electronic_floor: float = 0.0
    power_per_pixel: float = 1.0
    # scene
    grid_size: int = 256
    cell_size: int = 16
    bowtie_half_angle_deg: float = 22.5
    bowtie_radius_frac: float = 0.9
    font_dir: str = ""
    weight_map: str = ""
    # acquisition
    points_per_trace: int = 460
    segment_length: int = 10
    samples_per_point: int = 300
    point_correlation: float = 0.5
    n_series: int = 10
    angles_deg: tuple = DEFAULT_ANGLES_DEG
    seed: int = 12345
    # output
    out_dir: str = "out"

    def validate(self):
        # NaN fails every comparison and inf passes a lower bound, so each
        # bound is also capped at inf: a non-finite value fails here, naming
        # its field, not in a later stage that blames another one; past r = 12
        # (calibrate_r's bound) the noise terms cancel to worse than 1e-6
        if not (np.isnan(self.r) or 0 <= self.r <= 12.0):
            raise ConfigError("source.r", "must lie in [0, 12] when given")
        if np.isnan(self.r) and self.squeezing_db_detected < 0:
            raise ConfigError("source.squeezing_db_detected", "must be >= 0 (dB below SNL)")
        for name in ("t_probe", "t_conj"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError("source.%s" % name, "must lie in [0, 1]")
        if not 0 <= self.lock_noise < np.inf:
            raise ConfigError("source.lock_noise", "must be finite and >= 0")
        if not 0 <= self.electronic_floor < np.inf:
            raise ConfigError("source.electronic_floor", "must be finite and >= 0")
        if not 0 < self.power_per_pixel < np.inf:
            raise ConfigError("source.power_per_pixel", "must be finite and > 0")
        if self.grid_size < 2:
            raise ConfigError("scene.grid_size", "must be >= 2")
        if self.grid_size > _MAX_FLOATS:
            raise ConfigError("scene.grid_size",
                              "a grid row of %d floats is more than numpy can address"
                              % self.grid_size)
        if not 1 <= self.cell_size <= self.grid_size:
            raise ConfigError("scene.cell_size", "must lie in [1, grid_size]")
        if not 0.0 < self.bowtie_half_angle_deg < 90.0:
            raise ConfigError("scene.bowtie_half_angle_deg", "must lie in (0, 90)")
        if not 0.0 < self.bowtie_radius_frac <= 1.0:
            raise ConfigError("scene.bowtie_radius_frac", "must lie in (0, 1]")
        if self.font_dir and not Path(self.font_dir).is_dir():
            raise ConfigError("scene.font_dir", "directory %r not found" % self.font_dir)
        if self.weight_map and not Path(self.weight_map).is_file():
            raise ConfigError("scene.weight_map", "file %r not found" % self.weight_map)
        try:
            row = self.acquisition().raw_points_per_trace
        except TraceError as exc:
            raise ConfigError("acquisition", str(exc)) from None
        if self.n_series < 1:
            raise ConfigError("acquisition.n_series", "must be >= 1")
        # a series is drawn as one n_series x row block of floats
        if row > _MAX_FLOATS:
            raise ConfigError("acquisition.points_per_trace",
                              "a trace of %d raw points is more than numpy can address" % row)
        if self.n_series > _MAX_FLOATS // row:
            raise ConfigError("acquisition.n_series",
                              "%d traces of %d raw points are more than numpy can address"
                              % (self.n_series, row))
        if len(self.angles_deg) < 1:
            raise ConfigError("acquisition.angles_deg", "must list at least one angle")
        if not np.all(np.isfinite(self.angles_deg)):
            raise ConfigError("acquisition.angles_deg", "angles must be finite")
        if len(set(self.angles_deg)) != len(self.angles_deg):
            raise ConfigError("acquisition.angles_deg", "angles must be distinct")
        return self

    # ---- derived objects -------------------------------------------------
    def resolve_r(self):
        """The squeezing parameter: explicit r wins, else calibrate from dB."""
        if not np.isnan(self.r):
            return float(self.r)
        try:
            return calibrate_r(self.squeezing_db_detected, self.t_probe,
                               self.t_conj, self.lock_noise)
        except NoiseModelError as exc:
            raise ConfigError("source.squeezing_db_detected", str(exc)) from None

    def twin_beam_params(self):
        return TwinBeamParams(
            r=self.resolve_r(), t_probe=self.t_probe, t_conj=self.t_conj,
            lock_noise=self.lock_noise, electronic_floor=self.electronic_floor,
        )

    def acquisition(self):
        return AcquisitionConfig(
            points_per_trace=self.points_per_trace,
            segment_length=self.segment_length,
            samples_per_point=self.samples_per_point,
            point_correlation=self.point_correlation,
            rng_seed=self.seed,
        )

    def bowtie_half_angle(self):
        return float(np.deg2rad(self.bowtie_half_angle_deg))

    def bowtie_radius(self):
        return self.bowtie_radius_frac * self.grid_size / 2.0

    def load_weight_map(self):
        if not self.weight_map:
            return None
        try:
            with warnings.catch_warnings():
                # numpy warns on an empty file; the shape check below reports it
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(self.weight_map, dtype=float)
        except ValueError as exc:
            raise ConfigError("scene.weight_map", "not a numeric matrix: %s" % exc) from None
        if data.shape != (self.grid_size, self.grid_size):
            raise ConfigError(
                "scene.weight_map",
                "expected a %dx%d matrix, got %s" % (self.grid_size, self.grid_size, data.shape),
            )
        if not np.all(np.isfinite(data) & (data >= 0)):
            raise ConfigError("scene.weight_map",
                              "weight map entries must be finite and non-negative")
        # weights are relative: scaled to a largest entry of 1, the overlaps
        # do not depend on the map's scale, and its sums cannot overflow
        peak = data.max()
        return data / peak if peak > 0 else data

    def as_dict(self):
        """Resolved config for result files; omits out_dir so artifacts stay
        byte-identical wherever they are written."""
        out = {}
        for f in fields(self):
            if f.name == "out_dir":
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        # JSON has no NaN: an unset r is null, and r_resolved carries the value
        if np.isnan(self.r):
            out["r"] = None
        out["r_resolved"] = self.resolve_r()
        return out


_SECTIONS = {
    "source": ("squeezing_db_detected", "r", "t_probe", "t_conj", "lock_noise",
               "electronic_floor", "power_per_pixel"),
    "scene": ("grid_size", "cell_size", "bowtie_half_angle_deg",
              "bowtie_radius_frac", "font_dir", "weight_map"),
    "acquisition": ("points_per_trace", "segment_length", "samples_per_point",
                    "point_correlation", "n_series", "angles_deg", "seed"),
    "output": ("out_dir",),
}

_INT_FIELDS = {"grid_size", "cell_size", "points_per_trace", "segment_length",
               "samples_per_point", "n_series", "seed"}
_STR_FIELDS = {"font_dir", "weight_map", "out_dir"}


def _format_value(name, value):
    if name == "angles_deg":
        return ", ".join(repr(float(a)) for a in value)
    if name in _STR_FIELDS:
        return str(value)
    if name in _INT_FIELDS:
        return str(int(value))
    return repr(float(value))


def _parse_value(name, raw, where):
    try:
        if name == "angles_deg":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        if name in _STR_FIELDS:
            return raw
        if name in _INT_FIELDS:
            return int(raw)
        return float(raw)
    except ValueError:
        raise ConfigError(where, "cannot parse value %r" % raw) from None


def config_text(cfg):
    """The config file text for `cfg`; a non-ASCII value (only a path can hold
    one) raises a ConfigError naming its field."""
    lines = ["# noiseimaging run config v1"]
    for section, names in _SECTIONS.items():
        lines.append("")
        lines.append("[%s]" % section)
        for name in names:
            value = _format_value(name, getattr(cfg, name))
            if not value.isascii():
                raise ConfigError("%s.%s" % (section, name),
                                  "%r is not ASCII; config files are ASCII" % value)
            lines.append("%s = %s" % (name, value))
    return "\n".join(lines) + "\n"


def save_config(cfg, path):
    Path(path).write_text(config_text(cfg), encoding="ascii")


def load_config(path):
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config", "file %r not found" % str(path))
    try:
        contents = path.read_text(encoding="ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError("config", "file %r is not ASCII text: %s" % (str(path), exc)) from None
    values = {}
    section = None
    for lineno, line in enumerate(contents.splitlines(), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError("line %d" % lineno, "unknown section %r" % section)
            continue
        if "=" not in text:
            raise ConfigError("line %d" % lineno, "expected 'key = value', got %r" % text)
        key, raw = (part.strip() for part in text.split("=", 1))
        if section is None:
            raise ConfigError("line %d" % lineno, "key %r appears before any section" % key)
        if key not in _SECTIONS[section]:
            raise ConfigError("%s.%s" % (section, key), "unknown key")
        values[key] = _parse_value(key, raw, "%s.%s" % (section, key))
    return RunConfig(**values)


def with_overrides(cfg, seed=None, out_dir=None):
    updates = {}
    if seed is not None:
        updates["seed"] = int(seed)
    if out_dir is not None:
        updates["out_dir"] = str(out_dir)
    return replace(cfg, **updates) if updates else cfg
