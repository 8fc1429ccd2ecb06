"""Writes a run config as the file that `load_config` reads.

The package renders a config as text (`config_text`) and writes none; the
tests write theirs through this one helper.
"""

from pathlib import Path

from noiseimaging.config import RunConfig, config_text


def write_config(cfg, path):
    Path(path).write_text(config_text(cfg), encoding="ascii")


def small_config(tmp_path):
    """tmp_path/run.cfg, written for a run that takes milliseconds: a 64^2
    grid of 2-pixel cells and 2 series of 100 samples a point."""
    path = tmp_path / "run.cfg"
    write_config(RunConfig(grid_size=64, cell_size=2, n_series=2, samples_per_point=100), path)
    return path
