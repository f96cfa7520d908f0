"""Golden outputs: SHA-256 of every deterministic data file from the shipped configs.

The stdout of each run is hashed too, with its output directory replaced
by ``<out>``, so summary numbers that reach no data file (the Fedorov
ratio, peak positions, widths) are pinned as well. Refactors must leave
all of these byte-identical. Floating-point results
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
    ("fedorov", "single_mode", (), ()),
    ("fedorov", "single_mode", ("--zero-width-slits",), ()),
    ("tpa", "single_mode", (), ("kernel.csv", "kernel.meta.yaml")),
    ("tpa", "three_modes", (), ("kernel.csv", "kernel.meta.yaml")),
    ("fedorov", "three_modes", (), ()),
    ("scan", "three_modes", (),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "single_mode", ("--wavelength-avg",),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "three_modes", ("--zero-width-slits",),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "three_modes", ("--wavelength-avg",),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "three_modes", ("--grid-points", "841", "--both-branches", "--zero-width-slits"),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "single_mode", ("--grid-points", "614", "--both-branches"),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "three_modes", ("--grid-points", "841", "--both-branches", "--wavelength-avg"),
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
        "scan three_modes singles_signal.csv":
            "2409185096986b43e2bd28bd69c44ce384f5b70c2b1f3af992c7970ad32a102f",
        "scan three_modes singles_idler.csv":
            "dda1c4a50ef5f89846c715b46e59f3ac6e10b624cefff1783375f51478849b95",
        "scan three_modes coincidence_signal.csv":
            "67593ac213bc17ab18bf79699821dacae5d5e3aca3b677855a23dd6fffbadbf8",
        "scan single_mode --wavelength-avg singles_signal.csv":
            "3b09fcac870646a062c1321651c0db8b7d7e947051703e1dd5eded97fb4ce25b",
        "scan single_mode --wavelength-avg singles_idler.csv":
            "8dcf82c2225d83d552119b444aac873c16d2ca948647eb4603ef1d566b96d88a",
        "scan single_mode --wavelength-avg coincidence_signal.csv":
            "06d757931d74265b2b76e91a798ef2235b060cc499c84c036a0d68a4d8b3095c",
        "scan three_modes --zero-width-slits singles_signal.csv":
            "54830e0d6748d73fc3f4b4a7dca66c06307330b779996c25dfd11f81be768cb3",
        "scan three_modes --zero-width-slits singles_idler.csv":
            "e01011000835db00b9f3f873678f4f2003034ea27a30a7f7f83160133cf6071b",
        "scan three_modes --zero-width-slits coincidence_signal.csv":
            "1d06c33895569e56ddf5fbe4c847e8ae5769f88970c5829e4ba51fb5561c53bf",
        "scan three_modes --wavelength-avg singles_signal.csv":
            "e5021cd80c89ff7051e5938411f61824db6261e2040b1f5f88395bc7d456d633",
        "scan three_modes --wavelength-avg singles_idler.csv":
            "7524e4197f34ccaacb568050a09f71672c3759e4e6a48965a7819358bea34448",
        "scan three_modes --wavelength-avg coincidence_signal.csv":
            "283ab8a1635df2a94ebc566e6ed2d844fee42a3989a58917a4c28105d38ebc70",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits "
        "singles_signal.csv":
            "83af02e929005ad3d0b4c75fc90e34c8c64c4dbb087c6c1879edb76c17873ab6",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits "
        "singles_idler.csv":
            "ca718790df48d74e831b48e8d08c95d33334144ab07a92c21e3510ff56a109f3",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits "
        "coincidence_signal.csv":
            "ca835de1c3d8b5e93160881f059adbce87db3cc5d1e2e9aa651169b3ccc0ec9c",
        "scan single_mode --grid-points 614 --both-branches singles_signal.csv":
            "e82d0c87fbcccdad0b1207138266ecda07c66fd85989b437a752b5e60c0c187b",
        "scan single_mode --grid-points 614 --both-branches singles_idler.csv":
            "b563aeef77dc04727825487017e5e5da623cb0d7ce2f1162e35105855d5be51a",
        "scan single_mode --grid-points 614 --both-branches coincidence_signal.csv":
            "9deb53c37f19a78220de7060c8e5b9cf270fc1dddea823af4c8b7b47a0222604",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg "
        "singles_signal.csv":
            "8b659a69087ec3c69a37895325f76cfa6f5e6730d170a40634243882d833efda",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg "
        "singles_idler.csv":
            "dd97b59bbe6b85c6c253a471c747b80f691c31fd87fc0cbde552a866da4b3819",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg "
        "coincidence_signal.csv":
            "a374d39267fb11fda868a0120a100298b9775814b8709c0c6acbfd8cec233854",
        "pump three_modes pump_field.csv":
            "b67de4444d1c07a4a2a0e33bca851d8827bf5ca1b3fbdf6a48e0f9f88917cd94",
        "crosstalk crosstalk crosstalk.csv":
            "9a0357a79140dd49b53d49625279fd8518b35d362b6d33db0ddec0256992c313",
        "hologram hologram hologram.pgm":
            "e027f7e1e16d1216945385b0944fd92692d48977c41910dda207de6b6558254e",
        "fedorov single_mode stdout":
            "17bb9065c70457254c2a3cc35640e3e1d2c2db0b8c4448797ee47ae52acdafe4",
        "fedorov single_mode --zero-width-slits stdout":
            "17bb9065c70457254c2a3cc35640e3e1d2c2db0b8c4448797ee47ae52acdafe4",
        "fedorov three_modes stdout":
            "2147d90221f9517756a4301ff5757f0c5a0d3f130e6fe2c53a0ebc589c78dda1",
        "scan three_modes stdout":
            "75fa1fca02bd7badcfb816ebcd95de8d41282985d087d311c60c8f7f0d4a39d1",
        "scan single_mode --wavelength-avg stdout":
            "80342ede2b113a334acefc7cbbd190a7dc4f777a79059a7e4581cc5ede5c6d13",
        "tpa single_mode stdout":
            "a151d682cf093bb6047ca7c4b3fab7a8f6b2fae0a11047aae6c0a45e4494f27c",
        "tpa three_modes stdout":
            "665d29238a4a08a7e1fe46706c8589bcc8eef43f73ac552b8556290fccd1b199",
        "scan three_modes --zero-width-slits stdout":
            "e63691de6e92dbaf4c68bb35ed2bbbb517179d55284c51aa0794a031269c6c1f",
        "scan three_modes --wavelength-avg stdout":
            "99fb1dd843321928540fbdec996ec613dbc6a53b7d1b1c5479f42fec527ce8e2",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits stdout":
            "37c2d2e2b713dbab6763ab124b2d3db169c76453a3cbe877016731c622618c96",
        "scan single_mode --grid-points 614 --both-branches stdout":
            "fd159738c240f1a11f534a78f25d5da7c791377a6a8a682216ec46d6e8d9fc4c",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg stdout":
            "de60ec36391635e413f5d69bcb106e86d66542ac2eb9ebba0e0f4adb2b3c150a",
        "pump three_modes stdout":
            "ef801ff0ff052ca1ec17ab6a934d8dc0a9c2a23ecab2c756016127164c68a3bd",
        "crosstalk crosstalk stdout":
            "b835cedc05c235009e9097834322a3ee12319909e0c7c110021e681c6890631c",
        "hologram hologram stdout":
            "9acff8fe3c4466c1613c1a4ecb701b6ff8831740520cdb3b5367ad89a9c6c37d",
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
    stdout = capsys.readouterr().out.replace(str(out), "<out>")
    for name in files:
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert digest == expected[_run_key(command, config, flags, name)], name
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digest == expected[_run_key(command, config, flags, "stdout")], stdout
