"""The benchmark's workloads: the configs each one feeds to ``mixbench run``.

A workload is a tuple of user configs (mappings merged over the program's
defaults by ``mixbench``).  Invocations cycle through them in order, so a
workload with several configs repeats each one and every repeat can be
compared byte for byte with the first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Tuple

NAMES = ("default", "sweep", "bundle_json")

# Number of mixer design points in one `sweep` run.  Each point is a full
# 405-simulate invocation, so eight keep a run well inside its time budget
# while every point repeats several times.
SWEEP_POINTS = 8

# Sweep ranges: (low, high) of each uniformly distributed design parameter.
SWEEP_RANGES = {
    "gm": (0.005, 0.1),            # A/V
    "p1db_dbm": (-25.0, -5.0),     # compression-point target
    "rd": (100.0, 400.0),          # ohm
    # kappa stays <= 1e-3: the single-tone closed forms assume no second
    # tone at the RF port, and a strong LO leak is one.  kappa up to 0.05
    # moves P1dB by up to 0.85 dB through that desensitisation.
    "kappa": (1e-4, 1e-3),
}


@dataclass(frozen=True)
class Workload:
    name: str
    configs: Tuple[Dict[str, Any], ...]
    # Conversion-gain tolerance against (2/pi)*Rd*gm.  At -30 dBm the cubic
    # and the 13 mV LO leak of the default design already take 0.073 dB.
    gain_tol_db: float


def centred_latin_hypercube(rng: random.Random, points: int,
                            ranges: Dict[str, Tuple[float, float]]):
    """``points`` draws of each uniform range, one per equal-width stratum.

    Each parameter takes the centre of every stratum exactly once, in an
    order shuffled by ``rng``.  Every run therefore spans each range evenly,
    and the design point with the lowest P1dB target (the largest oracle
    residual) sits in the same stratum whatever the seed.
    """
    columns = {}
    for name, (lo, hi) in ranges.items():
        order = list(range(points))
        rng.shuffle(order)
        columns[name] = [lo + (k + 0.5) * (hi - lo) / points for k in order]
    return [{name: col[i] for name, col in columns.items()} for i in range(points)]


def a3_for_p1db(gm: float, p1db_dbm: float) -> float:
    """Cubic coefficient that puts the closed-form P1dB at ``p1db_dbm``.

    Inverts ``devices.a1db_closed_form``:
    A1dB^2 = (4/3) (1 - 10**(-1/20)) gm / |a3|.
    """
    from mixbench.signals import dbm_to_amplitude  # after run.py finds src/

    a1db = dbm_to_amplitude(p1db_dbm)
    return -(4.0 / 3.0) * (1.0 - 10.0 ** (-1.0 / 20.0)) * gm / (a1db * a1db)


def sweep_configs(seed: int) -> Tuple[Dict[str, Any], ...]:
    rng = random.Random(seed)
    configs = []
    for point in centred_latin_hypercube(rng, SWEEP_POINTS, SWEEP_RANGES):
        configs.append({
            "scenario": {
                "rf_power_dbm": -50.0,
                "mixer": {
                    "gm": point["gm"],
                    "rd": point["rd"],
                    "kappa": point["kappa"],
                    "a3": a3_for_p1db(point["gm"], point["p1db_dbm"]),
                },
            },
            "measurements": ["cg", "p1db", "iip3", "isolation", "power"],
            "sweeps": {"p1db": {"start_dbm": -40.0, "stop_dbm": 0.0,
                                "step_db": 0.1}},
        })
    return tuple(configs)


def build(name: str, seed: int) -> Workload:
    if name == "default":
        # The empty config: all 8 measurements, CSV, NF on its long grid.
        return Workload(name, ({},), gain_tol_db=0.1)
    if name == "sweep":
        return Workload(name, sweep_configs(seed), gain_tol_db=0.05)
    if name == "bundle_json":
        return Workload(name, ({
            "scenario": {"grid": {"bins_per_unit": 16}},
            "measurements": ["cg", "harmonics", "transient", "power"],
            "output": {"format": "json"},
        },), gain_tol_db=0.1)
    raise ValueError(f"unknown workload {name!r}")

