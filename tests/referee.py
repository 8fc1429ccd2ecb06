"""The one way the tests run the pipeline, read its artifacts, and derive
the closed forms and operating points they compare against.

Every artifact is read through `strict_json`, so it also keeps the CLI
contract's rule that JSON holds no NaN or Infinity literal.  Every child
process a test starts runs through `child`, in an environment from
`child_env`.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from noiseimaging import cli, scene
from noiseimaging.config import RunConfig
from noiseimaging.estimate import delta_o_table, enhancement, fit_noise_curve
from noiseimaging.noise import (TECH_CLASSICAL, TECH_QUANTUM, TECHNIQUES, calibrate_r,
                                classical_noise, lo_power_check, quantum_noise, technique_noise)
from noiseimaging.traces import derive_seed, measure_series

from config_files import write_config
from scene_reference import cell_moments

SRC = Path(cli.__file__).resolve().parents[1]

# desk-scale lossless calibration: r solving 20 r log10(e) = 2.2
R_DESK = 2.2 * math.log(10.0) / 20.0

# the overlaps the default angles give on an ideal wedge pair
DESK_OVERLAPS = (1.0, 0.998, 0.996, 0.994, 0.992, 0.99,
                 0.88, 0.84, 0.8, 0.7, 0.55, 0.4, 0.25, 0.12, 0.002)


def _reject_constant(token):
    raise ValueError("non-JSON constant %s" % token)


def strict_json(text):
    """The JSON value of text, which may hold no NaN or Infinity literal."""
    return json.loads(text, parse_constant=_reject_constant)


def read_json(out, name):
    return strict_json((out / name).read_text())


def run(tmp_path, name, argv, cfg=None):
    """tmp_path/name, written by one `cli.main` run of argv that must exit 0;
    cfg, when given, is written as the run's config file."""
    out = tmp_path / name
    if cfg is not None:
        cfg_path = tmp_path / ("%s.cfg" % name)
        write_config(cfg, cfg_path)
        argv = argv + ["--config", str(cfg_path)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out


def child_env(**extra):
    """This process's environment with this checkout's src first on
    PYTHONPATH, and each extra variable set, or removed when given None."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return {name: value for name, value in env.items() if value is not None}


def child(args, env=None, returncode=0, **run_kwargs):
    """The CompletedProcess of `[sys.executable, *args]`, run with
    `subprocess.run` in child_env() unless env is given, its output captured
    as text unless run_kwargs route it; it must exit with returncode."""
    run_kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True,
                  "timeout": 300, **run_kwargs}
    proc = subprocess.run([sys.executable, *args], env=child_env() if env is None else env,
                          **run_kwargs)
    assert proc.returncode == returncode, proc.stderr
    return proc


def sweep(cfg):
    """(summary, fits) of the sweep at cfg, from `cli.cmd_sweep`'s texts."""
    texts = dict(cli.cmd_sweep(cfg)[1])
    return strict_json(texts["summary.json"]), strict_json(texts["fits.json"])


def alphabet_profile(**acquisition):
    """(r, config) of the recognition-contrast calibration: deep pair squeezing
    with lossy arms, detected baseline still at -2.2 dB, and the given
    acquisition fields."""
    cfg = RunConfig(t_probe=0.44, t_conj=0.44, lock_noise=0.02, electronic_floor=1400.0,
                    **acquisition)
    return calibrate_r(2.2, cfg), cfg


def lossless_snl_crossing(r):
    """Overlap where the lossless quantum noise crosses the SNL."""
    c2 = math.cosh(r) ** 2
    return (c2 - 1.0) / (c2 - math.exp(-2.0 * r))


def binary_points(r, source, overlaps, acq, master, tag):
    """{technique: points}, sorted by overlap: at each overlap, fully
    transmitted and fully blocked cells mixed to it, at squeezing r with the
    fields of `source`, measured with those of `acq` at seed
    derive_seed(master, tag, technique, k) for the k-th overlap."""
    points = {}
    for technique in (TECH_CLASSICAL, TECH_QUANTUM):
        pts = []
        for k, o in enumerate(overlaps):
            o_cells, q_cells = cell_moments(np.array([o, 1.0 - o]), np.array([1.0, 0.0]))
            n_true = (quantum_noise(o_cells, q_cells, r, source) if technique == TECH_QUANTUM
                      else classical_noise(o_cells, r, source))
            (n, sem, delta), _ = measure_series(n_true, acq,
                                                derive_seed(master, tag, technique, k))
            pts.append({"overlap": float(o), "n": n, "sigma_n": sem, "delta_n": delta})
        points[technique] = sorted(pts, key=lambda p: p["overlap"])
    return points


def curve_enhancement(points):
    """The enhancement of the noise curves fitted to {technique: points}."""
    tables = {technique: delta_o_table(pts, *fit_noise_curve(pts))
              for technique, pts in points.items()}
    return enhancement(tables[TECH_CLASSICAL], tables[TECH_QUANTUM])


def expected_alphabet(glyphs, mask, r, cfg):
    """The closed form of `alphabet_gun(glyphs, mask, r, cfg)`, with no draws:
    {technique: {"n_masked": {letter: nm_true}, "deviation": {letter: nm_true
    / nb_true}, "best": letter, "sub_snl_letters": set}} over the letters
    above the electronic floor.  The quantum best has the least deviation, the
    classical the most, and the sub-SNL letters are the quantum ones whose
    true masked noise is below the SNL."""
    moments = {letter: scene.overlaps(lo, mask, cfg.cell_size) for letter, lo in glyphs.items()
               if lo_power_check(np.count_nonzero(lo), cfg)}
    expected = {}
    for technique in TECHNIQUES:
        nb_true = technique_noise(technique, 1.0, 1.0, r, cfg)
        masked = {letter: technique_noise(technique, o, q, r, cfg)
                  for letter, (o, q) in moments.items()}
        deviation = {letter: n / nb_true for letter, n in masked.items()}
        pick = max if technique == TECH_CLASSICAL else min
        expected[technique] = {
            "n_masked": masked, "deviation": deviation, "best": pick(deviation, key=deviation.get),
            "sub_snl_letters": {letter for letter, n in masked.items()
                                if technique == TECH_QUANTUM and n < 1.0}}
    return expected
