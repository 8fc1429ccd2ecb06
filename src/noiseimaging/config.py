"""Run configuration: a flat, diff-friendly key = value file with sections.

The file format is line-based ASCII: `[section]` headers, `key = value`
pairs, `#` comments and blank lines.  Values round-trip losslessly through
save/load (floats are written with repr).  Unknown sections or keys are
rejected with field-level messages.
"""

import warnings
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .noise import R_MAX, NoiseModelError, calibrate_r
from .scene import SceneError, check_weight_map
from .traces import TraceError, check_acquisition

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
    # total power transmission per arm (efficiency x path)
    t_probe: float = 1.0
    t_conj: float = 1.0
    # additive technical noise on the quantum difference signal only, in
    # two-beam SNL units
    lock_noise: float = 0.0
    # LO power (pixel count x power_per_pixel) below which a measurement
    # cannot clear the detector's electronic noise
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
        # its field, not in a later stage that blames another one; R_MAX is
        # calibrate_r's bound on r
        if not (np.isnan(self.r) or 0 <= self.r <= R_MAX):
            raise ConfigError("source.r", "must lie in [0, %g] when given" % R_MAX)
        # checked when r is given too: the config and the artifacts record it
        if not np.isfinite(self.squeezing_db_detected):
            raise ConfigError("source.squeezing_db_detected", "must be finite")
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
        # parsed and shape-checked for every command, not only the sweep that
        # reads it, and kept for that sweep
        _ = self.weights
        try:
            row = check_acquisition(self)
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
        # an empty path would put the artifacts in the working directory
        if not self.out_dir:
            raise ConfigError("output.out_dir", "must not be empty")
        return self

    # ---- derived objects -------------------------------------------------
    def resolve_r(self):
        """The squeezing parameter: explicit r wins, else calibrate from dB."""
        if not np.isnan(self.r):
            return float(self.r)
        try:
            return calibrate_r(self.squeezing_db_detected, self)
        except NoiseModelError as exc:
            raise ConfigError("source.squeezing_db_detected", str(exc)) from None

    def bowtie_half_angle(self):
        return float(np.deg2rad(self.bowtie_half_angle_deg))

    def bowtie_radius(self):
        return self.bowtie_radius_frac * self.grid_size / 2.0

    @cached_property
    def weights(self):
        """The weight map as a read-only grid_size x grid_size float array,
        None when no map is set; the file is parsed once per config."""
        if not self.weight_map:
            return None
        if not Path(self.weight_map).is_file():
            raise ConfigError("scene.weight_map", "file %r not found" % self.weight_map)
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
        try:
            check_weight_map(data)
        except SceneError as exc:
            raise ConfigError("scene.weight_map", str(exc)) from None
        data.setflags(write=False)
        return data

    def as_dict(self, r_resolved):
        """Resolved config for result files, with the command's resolved r;
        omits out_dir so artifacts stay byte-identical wherever they are
        written."""
        out = {}
        for f in fields(self):
            if f.name == "out_dir":
                continue
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        # JSON has no NaN: an unset r is null, and r_resolved carries the value
        if np.isnan(self.r):
            out["r"] = None
        out["r_resolved"] = r_resolved
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
    values, key_lines = {}, {}
    section = None
    # read_text has turned every line end into "\n"; splitlines would also
    # break at \x0b, \x0c and \x1c-\x1e and so miscount the lines
    for lineno, line in enumerate(contents.split("\n"), 1):
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
        if key_lines.setdefault(key, lineno) != lineno:
            raise ConfigError("%s.%s" % (section, key),
                              "given twice, on lines %d and %d" % (key_lines[key], lineno))
        values[key] = _parse_value(key, raw, "%s.%s" % (section, key))
    return RunConfig(**values)

