"""Run configuration: a flat, diff-friendly key = value file with sections.

The file format is line-based ASCII: `[section]` headers, `key = value`
pairs, `#` comments and blank lines.  Values round-trip losslessly through
save/load (floats are written with repr).  Unknown sections or keys are
rejected with field-level messages.
"""

import math
import sys
import warnings
from functools import cached_property
from pathlib import Path

# numpy, scene and traces are imported where used, so this module compiles before numpy
from .noise import R_MAX, NoiseModelError, calibrate_r

# fine scan near alignment (overlap 1 down to 0.99) for the high-overlap
# sensitivity average, coarse tail across the full range for the curve shape
DEFAULT_ANGLES_DEG = (
    0.0, 0.09, 0.18, 0.27, 0.36, 0.45,
    5.4, 7.2, 9.0, 13.5, 20.25, 27.0, 33.75, 39.6, 45.0,
)

# float64 values in the largest array numpy can address: past intp-max bytes
# it raises ValueError, where a size that only exceeds memory raises MemoryError
_MAX_FLOATS = sys.maxsize // 8


class ConfigError(ValueError):
    """Raised with a field-qualified message for invalid configuration."""

    def __init__(self, field_name, message):
        self.field = field_name
        super().__init__("%s: %s" % (field_name, message))


# every field in file order, section -> (name, default); the default's type
# (float, int, str or tuple of floats) is the field's type in a config file.
# r NaN: derive it from squeezing_db_detected.  t_probe, t_conj: total power
# transmission per arm (efficiency x path).  lock_noise: additive technical
# noise on the quantum difference signal only, in two-beam SNL units.
# electronic_floor: the LO power (pixel count x power_per_pixel) below which a
# measurement cannot clear the detector's electronic noise
FIELDS = {
    "source": (("squeezing_db_detected", 2.2), ("r", math.nan), ("t_probe", 1.0),
               ("t_conj", 1.0), ("lock_noise", 0.0), ("electronic_floor", 0.0),
               ("power_per_pixel", 1.0)),
    "scene": (("grid_size", 256), ("cell_size", 16), ("bowtie_half_angle_deg", 22.5),
              ("bowtie_radius_frac", 0.9), ("font_dir", ""), ("weight_map", "")),
    "acquisition": (("points_per_trace", 460), ("segment_length", 10),
                    ("samples_per_point", 300), ("point_correlation", 0.5),
                    ("n_series", 10), ("angles_deg", DEFAULT_ANGLES_DEG), ("seed", 12345)),
    "output": (("out_dir", "out"),),
}
_DEFAULTS = {name: default for fields in FIELDS.values() for name, default in fields}
_SECTION = {name: section for section, fields in FIELDS.items() for name, _ in fields}


class RunConfig:
    """Everything a command run depends on, seed included: one read-only
    attribute per field of FIELDS."""

    def __init__(self, **values):
        unknown = values.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError("unknown RunConfig fields: %s" % ", ".join(sorted(unknown)))
        self.__dict__.update(_DEFAULTS, **values)

    def __setattr__(self, name, value=None):
        raise AttributeError("RunConfig is frozen: cannot set or delete %r" % name)

    __delattr__ = __setattr__

    def replace(self, **changes):
        """A new config with the given fields changed."""
        return RunConfig(**{name: getattr(self, name) for name in _DEFAULTS} | changes)

    def validate(self):
        from .scene import SceneError
        from .traces import TraceError, check_acquisition

        # NaN fails every comparison and inf passes a lower bound, so each
        # bound is also capped at inf: a non-finite value fails here, naming
        # its field, not in a later stage that blames another one; R_MAX is
        # the top of the noise model's accepted range of r
        if not (math.isnan(self.r) or 0 <= self.r <= R_MAX):
            raise ConfigError("source.r", "must lie in [0, %g] when given" % R_MAX)
        # checked when r is given too: the config and the artifacts record it
        if not math.isfinite(self.squeezing_db_detected):
            raise ConfigError("source.squeezing_db_detected", "must be finite")
        if math.isnan(self.r) and self.squeezing_db_detected < 0:
            raise ConfigError("source.squeezing_db_detected", "must be >= 0 (dB below SNL)")
        for name in ("t_probe", "t_conj"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError("source.%s" % name, "must lie in [0, 1]")
        if not 0 <= self.lock_noise < math.inf:
            raise ConfigError("source.lock_noise", "must be finite and >= 0")
        if not 0 <= self.electronic_floor < math.inf:
            raise ConfigError("source.electronic_floor", "must be finite and >= 0")
        if not 0 < self.power_per_pixel < math.inf:
            raise ConfigError("source.power_per_pixel", "must be finite and > 0")
        if self.grid_size < 2:
            raise ConfigError("scene.grid_size", "must be >= 2")
        # a bow-tie bitmap takes a byte per pixel: 2 GiB at int32's pixel count
        if self.grid_size ** 2 > 2**31 - 1:
            raise ConfigError("scene.grid_size", "a %dx%d grid has more pixels than int32 "
                              "indices can address" % (self.grid_size, self.grid_size))
        if not 1 <= self.cell_size <= self.grid_size:
            raise ConfigError("scene.cell_size", "must lie in [1, grid_size]")
        if not 0.0 < self.bowtie_half_angle_deg < 90.0:
            raise ConfigError("scene.bowtie_half_angle_deg", "must lie in (0, 90)")
        if not 0.0 < self.bowtie_radius_frac <= 1.0:
            raise ConfigError("scene.bowtie_radius_frac", "must lie in (0, 1]")
        # a set font and weight map are read and checked for every command,
        # not only the one that uses them, and kept for that command
        if self.font_dir:
            if not Path(self.font_dir).is_dir():
                raise ConfigError("scene.font_dir", "directory %r not found" % self.font_dir)
            try:
                _ = self.glyphs
            except SceneError as exc:
                raise ConfigError("scene.font_dir", str(exc)) from None
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
        if not all(map(math.isfinite, self.angles_deg)):
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
        if not math.isnan(self.r):
            return float(self.r)
        try:
            return calibrate_r(self.squeezing_db_detected, self)
        except NoiseModelError as exc:
            raise ConfigError("source.squeezing_db_detected", str(exc)) from None

    def bowtie_half_angle(self):
        return math.radians(self.bowtie_half_angle_deg)

    def bowtie_radius(self):
        return self.bowtie_radius_frac * self.grid_size / 2.0

    @cached_property
    def glyphs(self):
        """The A-Z font, {letter: read-only bool array}, from font_dir when
        set, else the bundled one; the files are read once per config."""
        from .scene import load_font

        return load_font(self.font_dir or None)

    @cached_property
    def weights(self):
        """The weight map as a read-only grid_size x grid_size float array,
        None when no map is set; the file is parsed once per config."""
        if not self.weight_map:
            return None
        import numpy as np

        from .scene import SceneError, check_weight_map

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
        for name in _DEFAULTS:
            if name == "out_dir":
                continue
            v = getattr(self, name)
            out[name] = list(v) if isinstance(v, tuple) else v
        # JSON has no NaN: an unset r is null, and r_resolved carries the value
        if math.isnan(self.r):
            out["r"] = None
        out["r_resolved"] = r_resolved
        return out


def _format_value(kind, value):
    if kind is tuple:
        return ", ".join(repr(float(a)) for a in value)
    return str(value) if kind is str else repr(kind(value))


def _parse_value(kind, raw, where):
    try:
        if kind is tuple:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return kind(raw)
    except ValueError:
        raise ConfigError(where, "cannot parse value %r" % raw) from None


def config_text(cfg):
    """The config file text for `cfg`; a non-ASCII value (only a path can hold
    one) raises a ConfigError naming its field."""
    lines = ["# noiseimaging run config v1"]
    for section, fields in FIELDS.items():
        lines.append("")
        lines.append("[%s]" % section)
        for name, default in fields:
            value = _format_value(type(default), getattr(cfg, name))
            if not value.isascii():
                raise ConfigError("%s.%s" % (section, name),
                                  "%r is not ASCII; config files are ASCII" % value)
            lines.append("%s = %s" % (name, value))
    return "\n".join(lines) + "\n"


def load_config(path):
    # messages name the path as given: Path("") reads as "."
    name = str(path)
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config", "file %r not found" % name)
    try:
        contents = path.read_bytes().decode("ascii")
    except UnicodeDecodeError as exc:
        raise ConfigError("config", "file %r is not ASCII text: %s" % (name, exc)) from None
    values, key_lines = {}, {}
    section = None
    # \r\n and a lone \r end a line as \n does; splitlines would also break
    # at \x0b, \x0c and \x1c-\x1e and so miscount the lines
    contents = contents.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, line in enumerate(contents.split("\n"), 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1].strip()
            if section not in FIELDS:
                raise ConfigError("line %d" % lineno, "unknown section %r" % section)
            continue
        if "=" not in text:
            raise ConfigError("line %d" % lineno, "expected 'key = value', got %r" % text)
        key, raw = (part.strip() for part in text.split("=", 1))
        if section is None:
            raise ConfigError("line %d" % lineno, "key %r appears before any section" % key)
        if _SECTION.get(key) != section:
            raise ConfigError("%s.%s" % (section, key), "unknown key")
        if key_lines.setdefault(key, lineno) != lineno:
            raise ConfigError("%s.%s" % (section, key),
                              "given twice, on lines %d and %d" % (key_lines[key], lineno))
        values[key] = _parse_value(type(_DEFAULTS[key]), raw, "%s.%s" % (section, key))
    return RunConfig(**values)

