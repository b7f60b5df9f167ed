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
    "harmonics_out.csv": "3725ea4b049e0b593a08d719c5bd97f64c0a69f124e76648f8c1ce16bca634a7",
    "harmonics_rf.csv": "e2dc1d5d8e2fc6ab6b8b0cd244fd35753c71a541f0f0db171d4f00fc56bd78b9",
    "iip3.csv": "3a44255f86fe98e3ef70dc5b81e822e13a9ed7742ee63287b66560e9e3209384",
    "isolation.csv": "24b3149845c873f69635582af2d7c1a15b3c55377dacf357cb9fd78fad584e1e",
    "metadata.json": "d8d1c7714f915cf55ccdb81e6a37954c97ba1c9c9012eec001bc97e8b4d0390d",
    "nf.csv": "4669f94de8659ae3497335aa696806afdaae6c3eacd1db61867c6fade1a5495e",
    "p1db_sweep.csv": "890d630c544aa6e6e1f1079b9553e298ff692ba836dd9953794bd765ee7617d3",
    "power.csv": "1dd5422f99ca6608f4c4e69dd8f89e3042d15f483c9d7b48300a10aeab845f5d",
    "summary.json": "5a0d60df7e049f805ecb4b9db06d2da08db8af23d920350912db5091f783ca0b",
    "summary.txt": "20f2e3f23968e11aeaaf41cbcc5436c1b466158ba4539393a15e5375c331727f",
    "transient_vout.csv":
        "3566595471e466e375c0d1f1400f9cdf79bc5d25da89ac34624d84e07e7f0174",
    "transient_vout_filtered.csv":
        "94ec338b6f9afec2937d0be7fe122a960de670df523fee986d17a7e3ec114b51",
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
