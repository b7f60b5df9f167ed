"""Closed-form checks on one ``mixbench run`` bundle.

Every invocation's bundle is read back and compared with the closed forms
the bench is calibrated against, so a fast wrong answer counts as a
failure and not as a gain:

* conversion gain within the workload's tolerance of (2/pi)*Rd*gm;
* P1dB within 0.2 dB of ``a1db_closed_form``;
* IIP3 within 0.2 dB of ``aiip3_closed_form``;
* isolation within 0.05 dB of 20*log10(kappa);
* DC power within 1e-3 relative of vdd*i_bias;
* noise figure within 0.3 dB of the full-folding value 10*log10(pi^2/4);
* each transient table has exactly ceil(num_samples / decimation) rows.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List

import yaml

from mixbench.devices import TransconductorParams, a1db_closed_form, aiip3_closed_form
from mixbench.signals import amplitude_to_dbm

P1DB_TOL_DB = 0.2
IIP3_TOL_DB = 0.2
ISOLATION_TOL_DB = 0.05
POWER_TOL_REL = 1e-3
NF_TOL_DB = 0.3
NF_FULL_FOLDING_DB = 10.0 * math.log10(math.pi ** 2 / 4.0)


@dataclass
class BundleCheck:
    """Outcome of the checks on one bundle.

    ``residuals_db`` holds |measured - closed form| of the deterministic
    checks; ``nf_err_db`` is kept apart because the noise-figure reading is
    a seeded estimate whose error moves with the noise seed.
    """

    failures: List[str] = field(default_factory=list)
    residuals_db: Dict[str, float] = field(default_factory=dict)
    nf_err_db: float = math.nan
    parameter_sha256: str = ""

    def residual(self, name: str, err: float, tol: float):
        self.residuals_db[name] = err
        if not err <= tol:
            self.failures.append(f"{name}: residual {err:.4g} dB exceeds {tol} dB")


def bundle_digest(out_dir: str) -> str:
    """SHA-256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _read_table(out_dir: str, name: str, fmt: str) -> List[Dict[str, Any]]:
    path = os.path.join(out_dir, f"{name}.{fmt}")
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "json":
            return json.load(fh)
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _count_rows(out_dir: str, name: str, fmt: str) -> int:
    if fmt == "json":
        return len(_read_table(out_dir, name, fmt))
    with open(os.path.join(out_dir, f"{name}.csv"), "rb") as fh:
        return sum(1 for _ in fh) - 1


def _requested_fields_match(requested: Any, effective: Any, path: str,
                            failures: List[str]):
    if isinstance(requested, dict):
        for key, value in requested.items():
            _requested_fields_match(value, effective.get(key) if isinstance(
                effective, dict) else None, f"{path}.{key}" if path else key, failures)
    elif requested != effective:
        failures.append(f"effective config has {path}={effective!r}, "
                        f"requested {requested!r}")


def check_bundle(out_dir: str, requested: Dict[str, Any],
                 gain_tol_db: float) -> BundleCheck:
    """Check one bundle written for the user config ``requested``."""
    check = BundleCheck()
    try:
        _check_bundle(out_dir, requested, gain_tol_db, check)
    except (OSError, ValueError, LookupError, TypeError, yaml.YAMLError) as exc:
        check.failures.append(f"malformed bundle: {type(exc).__name__}: {exc}")
    return check


def _check_bundle(out_dir: str, requested: Dict[str, Any], gain_tol_db: float,
                  check: BundleCheck):
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        meas = json.load(fh)["measurements"]
    with open(os.path.join(out_dir, "metadata.json"), encoding="utf-8") as fh:
        metadata = json.load(fh)
    with open(os.path.join(out_dir, "effective_config.yaml"), encoding="utf-8") as fh:
        effective = yaml.safe_load(fh)
    check.parameter_sha256 = metadata["parameter_sha256"]
    _requested_fields_match(requested, effective, "", check.failures)
    for name in effective["measurements"]:
        if name not in meas:
            check.failures.append(f"{name}: missing from summary.json")
        elif "error" in meas[name]:
            check.failures.append(f"{name}: {meas[name]['error']}")
    if check.failures:
        return

    fmt = effective["output"]["format"]
    mixer = effective["scenario"]["mixer"]
    gm, rd = float(mixer["gm"]), float(mixer["rd"])
    device = TransconductorParams(gm=gm, v_gs1=float(mixer["v_gs1"]),
                                  a2=float(mixer["a2"]), a3=float(mixer["a3"]))
    gain_db = 20.0 * math.log10((2.0 / math.pi) * rd * gm)
    if "cg" in meas:
        check.residual("cg", abs(meas["cg"]["value_db"] - gain_db), gain_tol_db)
    if "harmonics" in meas:
        out = _read_table(out_dir, "harmonics_out", fmt)[0]
        rf = _read_table(out_dir, "harmonics_rf", fmt)[0]
        check.residual("cg_harmonics",
                       abs(out["power_dbm"] - rf["power_dbm"] - gain_db), gain_tol_db)
    if "p1db" in meas:
        closed = amplitude_to_dbm(a1db_closed_form(device))
        check.residual("p1db", abs(meas["p1db"]["value_dbm"] - closed), P1DB_TOL_DB)
    if "iip3" in meas:
        closed = amplitude_to_dbm(aiip3_closed_form(device))
        check.residual("iip3", abs(meas["iip3"]["value_dbm"] - closed), IIP3_TOL_DB)
    if "isolation" in meas:
        closed = 20.0 * math.log10(float(mixer["kappa"]))
        check.residual("isolation", abs(meas["isolation"]["value_db"] - closed),
                       ISOLATION_TOL_DB)
    if "power" in meas:
        closed = float(mixer["vdd"]) * float(mixer["i_bias"])
        measured = meas["power"]["value_w"]
        check.residuals_db["power"] = abs(10.0 * math.log10(measured / closed))
        if not abs(measured - closed) <= POWER_TOL_REL * closed:
            check.failures.append(f"power: {measured!r} W is not within "
                                  f"{POWER_TOL_REL} relative of {closed!r} W")
    if "nf" in meas:
        check.nf_err_db = abs(meas["nf"]["value_db"] - NF_FULL_FOLDING_DB)
        if not check.nf_err_db <= NF_TOL_DB:
            check.failures.append(
                f"nf: {meas['nf']['value_db']:.4f} dB is more than {NF_TOL_DB} dB "
                f"from the full-folding {NF_FULL_FOLDING_DB:.4f} dB")
    if "transient" in meas:
        decimation = int(effective["sweeps"]["transient"]["decimation"])
        rows = math.ceil(metadata["internal_grid"]["num_samples"] / decimation)
        for file_name in meas["transient"]["files"]:
            name = os.path.splitext(file_name)[0]
            got = _count_rows(out_dir, name, fmt)
            if got != rows:
                check.failures.append(f"{name}: {got} rows, expected {rows}")
