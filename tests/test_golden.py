"""The default bundle, byte for byte: SHA-256 of every file of an empty-config run.

The parameter hash and the ``effective_config.yaml`` digest of two more
configs are pinned too; they depend on the config code alone, not on numpy.

The table was recorded with numpy 2.4 (Python 3.11, OpenBLAS 0.3.31).
Another numpy may round a sum or a transform differently in the last bit,
so under another numpy major.minor the test skips instead of failing.  A
change that means to move a byte of the default bundle records the table
again and says why in CHANGES.md.
"""

import hashlib
import os

import numpy as np
import pytest

from helpers import BUNDLE_JSON_CONFIG, SWEEP_POINT_CONFIG

from mixbench.cli import main
from mixbench.config import loads_config

RECORDED_WITH_NUMPY = "2.4"

DEFAULT_BUNDLE_SHA256 = {
    "cg.csv": "dad290ddb410e9bff0a9cef254568a1b52a697201d246c43551dcaeb366737c2",
    "effective_config.yaml":
        "6712aa9ce05647fb256d175cc6a370fb79aa040542c5eedb7510344c0a6638a5",
    "harmonics_out.csv": "cb27b6db811e1048639ff4a080bc3847b20d2e754d5ac30f2d2a7caf95f2c87e",
    "harmonics_rf.csv": "061fe54e28f3bf67c60ef4947da2e25676997cdce0b6be782e31287b37795d28",
    "iip3.csv": "f94015bc8ff7d010bfc76a92d2600d9ff9fbcee412b1a901545595368b1b4450",
    "isolation.csv": "24b3149845c873f69635582af2d7c1a15b3c55377dacf357cb9fd78fad584e1e",
    "metadata.json": "d8d1c7714f915cf55ccdb81e6a37954c97ba1c9c9012eec001bc97e8b4d0390d",
    "nf.csv": "914e99c7a72944ce8a09ed0aa264a3592c79516328a6872fc8ace5851a6f9f29",
    "p1db_sweep.csv": "890d630c544aa6e6e1f1079b9553e298ff692ba836dd9953794bd765ee7617d3",
    "power.csv": "1dd5422f99ca6608f4c4e69dd8f89e3042d15f483c9d7b48300a10aeab845f5d",
    "summary.json": "cd2b78d35005c6afc8f4e24f33b01379d64e4933d3aea1f4d88566fe3a22671b",
    "summary.txt": "d8f48a0de333564d002da1562c9e3805a4c6e99019792b4a10e9909d26970df6",
    "transient_vout.csv":
        "ce64188ea91060d42e3eeabb397ee7a4211abc6c81a67b0dd9304dff1cd7b6fd",
    "transient_vout_filtered.csv":
        "81bcc0d0cba95041f7022b0ad1ac45a518d810108c643b887fe41dc05b193a2f",
}


def test_default_bundle_bytes(tmp_path):
    numpy_version = ".".join(np.__version__.split(".")[:2])
    if numpy_version != RECORDED_WITH_NUMPY:
        pytest.skip(f"digests recorded with numpy {RECORDED_WITH_NUMPY}, "
                    f"running numpy {np.__version__}")
    config = tmp_path / "empty.yaml"
    config.write_text("", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in os.listdir(out)}
    assert digests == DEFAULT_BUNDLE_SHA256


@pytest.mark.parametrize("text, parameter_sha256, effective_config_sha256", [
    (SWEEP_POINT_CONFIG,
     "408e773851a8c4fb9616bcd3c7f808446a61ec4169cb23c18c801cd1db70d704",
     "43a4c49fc1821b788fc9d34cca9aa6134bc235b58d9b511416200d23ff7c340a"),
    (BUNDLE_JSON_CONFIG,
     "0822e0c5a038f718d8d28cb1ae0ff2744efecadb95929efe7be3b6c70e406c5d",
     "79bc4d4a0cd85f4a8cfd5dc095953e48994d1eed3a6d6ea8014cc4fb9117ba3f"),
], ids=["sweep_point", "bundle_json"])
def test_config_digests(text, parameter_sha256, effective_config_sha256):
    cfg = loads_config(text)
    assert cfg.parameter_hash() == parameter_sha256
    assert hashlib.sha256(cfg.effective_yaml().encode("utf-8")).hexdigest() \
        == effective_config_sha256
