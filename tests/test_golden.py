"""Golden outputs: SHA-256 of every deterministic data file from the shipped configs.

Refactors must leave these files byte-identical. Floating-point results
depend on the numpy build and on the SIMD kernels it dispatches to, so the
recorded hashes are keyed to both; on any other build the test skips and
says why. Schmidt outputs come from an SVD and are compared with tolerances
elsewhere, so they are not hashed here.
"""

import hashlib
import os

import numpy as np
import pytest

from spdc_modes.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# (subcommand, config, flags) -> data files it writes
RUNS = (
    ("tpa", "single_mode", (), ("kernel.csv", "kernel.meta.yaml")),
    ("tpa", "three_modes", (), ("kernel.csv", "kernel.meta.yaml")),
    ("scan", "three_modes", ("--zero-width-slits",),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "three_modes", ("--wavelength-avg",),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("pump", "three_modes", (), ("pump_field.csv",)),
    ("crosstalk", "crosstalk", (), ("crosstalk.csv",)),
    ("hologram", "hologram", (), ("hologram.pgm",)),
)


def numpy_build_key() -> str:
    """numpy version plus the CPU dispatch targets it selects on this machine."""
    try:
        from numpy._core import _multiarray_umath as umath
        baseline = list(umath.__cpu_baseline__)
        enabled = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    except (ImportError, AttributeError):
        return f"numpy {np.__version__}; cpu features unknown"
    return (f"numpy {np.__version__}; baseline {','.join(baseline)}; "
            f"dispatch {','.join(enabled)}")


GOLDEN = {
    "numpy 2.4.6; baseline X86_V2; dispatch X86_V3,X86_V4,AVX512_ICL,AVX512_SPR": {
        "tpa single_mode kernel.csv":
            "9f6772f1a62870683589f0654c7707711078c2d383eb6b86e24c61edddaf35b5",
        "tpa single_mode kernel.meta.yaml":
            "3d0221f133b9ca5f8fd586813e20885c33d8ed1c599f97b0ed34371faaa1b981",
        "tpa three_modes kernel.csv":
            "985fe472c7be6bba99c3498ac5b61f9f62f51e90a736f180bfb57b71ba7d2a96",
        "tpa three_modes kernel.meta.yaml":
            "6f51c5bd0ecdcae3b04128e7e172377afb5b26edcfbe98a2f0de5d543e6ab247",
        "scan three_modes --zero-width-slits singles_signal.csv":
            "54830e0d6748d73fc3f4b4a7dca66c06307330b779996c25dfd11f81be768cb3",
        "scan three_modes --zero-width-slits singles_idler.csv":
            "e01011000835db00b9f3f873678f4f2003034ea27a30a7f7f83160133cf6071b",
        "scan three_modes --zero-width-slits coincidence_signal.csv":
            "1d06c33895569e56ddf5fbe4c847e8ae5769f88970c5829e4ba51fb5561c53bf",
        "scan three_modes --wavelength-avg singles_signal.csv":
            "1f6388d77408baf6a94cb4f3466fe64674efda6c1e0bfc5b0aa99e4a226d2886",
        "scan three_modes --wavelength-avg singles_idler.csv":
            "fd8799a50f9e50ad3b75fe9b5c123c17c123fb6105143e9a25b69719cf959968",
        "scan three_modes --wavelength-avg coincidence_signal.csv":
            "64a793aae67875a464436d007ef483edd823074bf5a4aae64ee6c5f11e15c74e",
        "pump three_modes pump_field.csv":
            "b67de4444d1c07a4a2a0e33bca851d8827bf5ca1b3fbdf6a48e0f9f88917cd94",
        "crosstalk crosstalk crosstalk.csv":
            "9a0357a79140dd49b53d49625279fd8518b35d362b6d33db0ddec0256992c313",
        "hologram hologram hologram.pgm":
            "04254b45d96656a01a334be209a892556cb11d1d3fcd04106db4675763d50335",
    },
}


def _run_key(command, config, flags, filename):
    return " ".join((command, config, *flags, filename))


@pytest.mark.parametrize("command,config,flags,files", RUNS,
                         ids=[" ".join((r[0], r[1], *r[2])) for r in RUNS])
def test_shipped_outputs_match_golden_hashes(tmp_path, capsys, command, config, flags, files):
    key = numpy_build_key()
    if key not in GOLDEN:
        pytest.skip(f"no golden hashes recorded for this numpy build ({key})")
    expected = GOLDEN[key]
    out = tmp_path / "out"
    cfg = os.path.join(CONFIG_DIR, f"{config}.yaml")
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 0
    capsys.readouterr()
    for name in files:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == expected[_run_key(command, config, flags, name)], name
