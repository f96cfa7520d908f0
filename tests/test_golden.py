"""Golden outputs: SHA-256 of every deterministic data file from the shipped configs.

The stdout of each run is hashed too, with its output directory replaced
by ``<out>``, so summary numbers that reach no data file (the Fedorov
ratio, peak positions, widths) are pinned as well. Refactors must leave
all of these byte-identical. Floating-point results
depend on the numpy build and on the SIMD kernels it dispatches to, so the
recorded hashes are keyed to both; on any other build the test skips and
says why. Schmidt tables come from an SVD and are compared with tolerances
elsewhere, so they are not hashed here; the stdout of ``schmidt`` is, since
every figure it prints (modes kept, c1, K, purity, entropy, discarded weight,
window leak) is rounded far above the tables' rounding or floored at 1e-15.
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
    ("fedorov", "three_modes", ("--zero-width-slits",), ()),
    ("fedorov", "three_modes", ("--grid-points", "841", "--both-branches", "--zero-width-slits"),
     ()),
    ("scan", "three_modes", ("--idler-center", "-0.68"),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "three_modes", ("--idler-center", "-0.68", "--zero-width-slits"),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("scan", "three_modes", ("--wavelength-avg", "--zero-width-slits"),
     ("singles_signal.csv", "singles_idler.csv", "coincidence_signal.csv")),
    ("pump", "three_modes", (), ("pump_field.csv",)),
    ("crosstalk", "crosstalk", (), ("crosstalk.csv",)),
    ("hologram", "hologram", (), ("hologram.pgm",)),
    ("crosstalk", "single_mode", ("--grid-points", "614", "--both-branches"), ("crosstalk.csv",)),
    ("hologram", "single_mode", (), ("hologram.pgm",)),
    ("schmidt", "single_mode", (), ()),
    ("schmidt", "three_modes", (), ()),
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
            "9d5e968c6edc0eb6c4543ec04041da60943cd666b4bf2858ca87e803b4fa3258",
        "tpa single_mode kernel.meta.yaml":
            "02f96008ca8fbf74529b96f2df2ce3f3353d5b9c0d7f6f7a632cf34606f50d8c",
        "tpa three_modes kernel.csv":
            "858eab8b13eca83d536474b7dc316cb593317a3525bc5084d36bc76344857a43",
        "tpa three_modes kernel.meta.yaml":
            "f8e2c515b260990a4b982341cd91f4bda884087bac804001537472aa4ac8cae6",
        "scan three_modes singles_signal.csv":
            "cd32b144f8dcbc78b5c7b9b649f76ca1752163c9b3a65a920a868dee50a22ae5",
        "scan three_modes singles_idler.csv":
            "a45efbc1e03ff944f53c1d55800074eb599469b5c80ff977babde20577cc5075",
        "scan three_modes coincidence_signal.csv":
            "b8f450d52079a2fae75593cf424a64337fb4c2273da9e328444c8fde881f6038",
        "scan single_mode --wavelength-avg singles_signal.csv":
            "ebc137ce29376e7f63ae504ae3fc294dd40741a994d5b88a7b119b36dce3ead2",
        "scan single_mode --wavelength-avg singles_idler.csv":
            "06ca953f6c8a6ffa7b1b4976d57e12d6a0452956bce7b37ba4c079a47692a212",
        "scan single_mode --wavelength-avg coincidence_signal.csv":
            "80e8b6cd089499bd01115d78a9bec3450ac123d5e73cd888a109597e994aede4",
        "scan three_modes --zero-width-slits singles_signal.csv":
            "151278faf4a35c22ab61d3fd966a6584124e028839a9036af77d0881836dc711",
        "scan three_modes --zero-width-slits singles_idler.csv":
            "d21d1ec4ba13e563c97fc01463c8a2d9bd7e06b1c92930bfc5444166c3436e57",
        "scan three_modes --zero-width-slits coincidence_signal.csv":
            "ff4d5b1e9a5780286575623ea414b9e27d34ae19747a41c69ffc9cfa8eca5faf",
        "scan three_modes --wavelength-avg singles_signal.csv":
            "4f6c663c555b3e267cf3a5b905b7508d430c3341854e9eaf863c2cbe977c2862",
        "scan three_modes --wavelength-avg singles_idler.csv":
            "4e506bbc2f1968dd7242aac71283aba3295d2e32fbbf0b305aafba2e38c5bebf",
        "scan three_modes --wavelength-avg coincidence_signal.csv":
            "393decc5b3d9ccab0d9fa80ed5b2b4e3d6dddfa74c92e3f12958db2efc1f6358",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits "
        "singles_signal.csv":
            "9056ba00dfe2c6ca895b3fbf9340ee0df391c1c21abae4e2ff92a4173a43f1ea",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits "
        "singles_idler.csv":
            "e806307574d41bf9ce56ccd73ba0a1ef39a9238672b8c20104d3e8df79053c5b",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits "
        "coincidence_signal.csv":
            "01c19b60cda9fde1336811febaaa3e89483c3becfaee9c1311ad2b163014b954",
        "scan single_mode --grid-points 614 --both-branches singles_signal.csv":
            "20c367383101dfbd638677b9ae6a7656a869036ae7e7846ef68fa0dd60033ba9",
        "scan single_mode --grid-points 614 --both-branches singles_idler.csv":
            "f074f6c8ce8d8f0a042c7eca4089916dc3f4ffb5f324c00ea7dc3a7fc6890a16",
        "scan single_mode --grid-points 614 --both-branches coincidence_signal.csv":
            "ae3dc30f0421803e5bdeb06eec7d83db5a3a67b31744fa563d5779510210adf7",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg "
        "singles_signal.csv":
            "05f82a92394137e8a26976aa518d7903a488c52c475f9c94d6772130dd115b0a",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg "
        "singles_idler.csv":
            "8e45cf8b077e7377f2a8ef80df007ec94cad1583c20215e4285f72cb54426ec5",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg "
        "coincidence_signal.csv":
            "60b716e6d00e035a561066a654f814ce4f11407169b349ddb4043443344ee2d4",
        "scan three_modes --idler-center -0.68 singles_signal.csv":
            "cd32b144f8dcbc78b5c7b9b649f76ca1752163c9b3a65a920a868dee50a22ae5",
        "scan three_modes --idler-center -0.68 singles_idler.csv":
            "a45efbc1e03ff944f53c1d55800074eb599469b5c80ff977babde20577cc5075",
        "scan three_modes --idler-center -0.68 coincidence_signal.csv":
            "0fd202c3bffdeb433d636aa3307a053dbd5443cc1ba2d1feed72f3945eb41061",
        "scan three_modes --idler-center -0.68 --zero-width-slits singles_signal.csv":
            "151278faf4a35c22ab61d3fd966a6584124e028839a9036af77d0881836dc711",
        "scan three_modes --idler-center -0.68 --zero-width-slits singles_idler.csv":
            "d21d1ec4ba13e563c97fc01463c8a2d9bd7e06b1c92930bfc5444166c3436e57",
        "scan three_modes --idler-center -0.68 --zero-width-slits coincidence_signal.csv":
            "a7a62ad1534b52df5128543932411592b1347f5eea24477416293c78e82a4152",
        "scan three_modes --wavelength-avg --zero-width-slits singles_signal.csv":
            "e59c164316ae525e4e16b6dd2d0bb2b2f17b8241369af5c5bf373e567354d047",
        "scan three_modes --wavelength-avg --zero-width-slits singles_idler.csv":
            "9cbccd5383911374519e7993e922a2fd3e2ae5155829ca413460bd13f6e1e091",
        "scan three_modes --wavelength-avg --zero-width-slits coincidence_signal.csv":
            "d6dcb55f23aa242b566071733842c305f00c7e2f9862a2299f35df21ed82995b",
        "pump three_modes pump_field.csv":
            "b67de4444d1c07a4a2a0e33bca851d8827bf5ca1b3fbdf6a48e0f9f88917cd94",
        "crosstalk crosstalk crosstalk.csv":
            "9a0357a79140dd49b53d49625279fd8518b35d362b6d33db0ddec0256992c313",
        "hologram hologram hologram.pgm":
            "e027f7e1e16d1216945385b0944fd92692d48977c41910dda207de6b6558254e",
        "fedorov single_mode stdout":
            "d05bd17e0ea4fae5032acf1129cb0b5869bf956a68e621f6f96eb18fbbdefaa8",
        "fedorov single_mode --zero-width-slits stdout":
            "d05bd17e0ea4fae5032acf1129cb0b5869bf956a68e621f6f96eb18fbbdefaa8",
        "fedorov three_modes stdout":
            "631afdfd8fe95e30f9fbad64e0460e0c9a7bbf7e4f2b1e64eb3e98de15d1ca5e",
        "scan three_modes stdout":
            "129346ca773e4f97da127e58d745d38a0d4da52a28bf8d4c1aeeba336b4e7817",
        "scan single_mode --wavelength-avg stdout":
            "1c92ba825bc8c55b55511c746b3532bebe091ab12a2d92c4cd01b9d031da7a8d",
        "tpa single_mode stdout":
            "908bd5b5908f485646692362b1f092368579a2aae57a8c7ea3445d97eaaebe7e",
        "tpa three_modes stdout":
            "8bfa87785dcfdda5331cc34fb45814067437c084b7532b74914b61e17a87ee1a",
        "scan three_modes --zero-width-slits stdout":
            "08ff7dc349ebf431a7eebd203171eee2ef79fd66e7ef9967eea2339d30bd444f",
        "scan three_modes --wavelength-avg stdout":
            "ae57cfcf11aa665e38fe83d2ac58db1a62b6c992e8ae9b142b908f8223f0198c",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits stdout":
            "7040671db45648d186e214117e48bd3af96e8953a7cd2c57d91f4b9557532b50",
        "scan single_mode --grid-points 614 --both-branches stdout":
            "2be2f17c276ef41eb3e2857e64f6fd84660e2d0297a2765a7041474d3ff7ee7d",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg stdout":
            "6f5a752353184350f8a392c86fa16ad31df2b61d33be60494957b097e6a312ee",
        "fedorov three_modes --zero-width-slits stdout":
            "3d82ecce2d04a856a3565706a61cc85d3b6a7ca2b06e1632069300fe1417dc82",
        "fedorov three_modes --grid-points 841 --both-branches --zero-width-slits stdout":
            "c8de4636e4fceb353916b0f69e40e864a533762ceed60354c2790639e67b085f",
        "scan three_modes --idler-center -0.68 stdout":
            "bde63e16095d604d52ebc7202b8b04d2fecc73154c0df9581d9b30092c77f770",
        "scan three_modes --idler-center -0.68 --zero-width-slits stdout":
            "89355b2f77e4747b2a708bcab5159d763731f53728c70e2922ac8bd785291a31",
        "scan three_modes --wavelength-avg --zero-width-slits stdout":
            "0eebad9da4443a877a5043db9038d946e4090dd7adcc17fd809d3d0bc272b401",
        "pump three_modes stdout":
            "df12ade165d1ac4f51aa541658d44594d30f252197eaac86e0f213146fff5c21",
        "crosstalk crosstalk stdout":
            "a9e5d8aac5da99d3324d3817eca6869ce42a0a62c72f888c74625c30ccc4b5dc",
        "hologram hologram stdout":
            "35b5362538f6687574775cb3877dc67a807a76ab1c3a8f5e3497c7b36838f1be",
        "crosstalk single_mode --grid-points 614 --both-branches crosstalk.csv":
            "7906ce11cc2ccd81ebdfaafc948ffa8f48eeafc8f65e98372689b285bbe770a8",
        "crosstalk single_mode --grid-points 614 --both-branches stdout":
            "b881cbb39c3df28ecab636c0abca6ca466bdce7a000f2437d91c7656886b7bd2",
        "hologram single_mode hologram.pgm":
            "2a9fb429d8e39519ddd74502872f941d9fe515f645bcda0115111cfbefaf4b69",
        "hologram single_mode stdout":
            "1d84ed7634762f80ce696922d784e8b9fa71f626f2e08300f6580c870ae989e8",
        "schmidt single_mode stdout":
            "c560c6bb5070653184aac1b2b565231fab0ff5daebb03ce9a6e6097cc54ee8a8",
        "schmidt three_modes stdout":
            "23a55506862f69f26bd9f06f8945a3433e77f3702a73a4cf3d439854a53975d2",
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
