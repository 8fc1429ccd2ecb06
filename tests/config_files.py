"""Writes a run config as the file that `load_config` reads.

The package renders a config as text (`config_text`) and writes none; the
tests write theirs through this one helper.
"""

from pathlib import Path

from noiseimaging.config import config_text


def write_config(cfg, path):
    Path(path).write_text(config_text(cfg), encoding="ascii")
