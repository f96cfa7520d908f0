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
            "17bb9065c70457254c2a3cc35640e3e1d2c2db0b8c4448797ee47ae52acdafe4",
        "fedorov single_mode --zero-width-slits stdout":
            "17bb9065c70457254c2a3cc35640e3e1d2c2db0b8c4448797ee47ae52acdafe4",
        "fedorov three_modes stdout":
            "2147d90221f9517756a4301ff5757f0c5a0d3f130e6fe2c53a0ebc589c78dda1",
        "scan three_modes stdout":
            "6bb1eb0041b651c98ef82b84e2f7298c4b521e3c37f1dbd779e9ecd04140cd67",
        "scan single_mode --wavelength-avg stdout":
            "80342ede2b113a334acefc7cbbd190a7dc4f777a79059a7e4581cc5ede5c6d13",
        "tpa single_mode stdout":
            "a151d682cf093bb6047ca7c4b3fab7a8f6b2fae0a11047aae6c0a45e4494f27c",
        "tpa three_modes stdout":
            "665d29238a4a08a7e1fe46706c8589bcc8eef43f73ac552b8556290fccd1b199",
        "scan three_modes --zero-width-slits stdout":
            "e1464ea69884e80e9c1b01f062f5c5162e0b393f19e8f63ba2cb808b91ca138f",
        "scan three_modes --wavelength-avg stdout":
            "99fb1dd843321928540fbdec996ec613dbc6a53b7d1b1c5479f42fec527ce8e2",
        "scan three_modes --grid-points 841 --both-branches --zero-width-slits stdout":
            "37c2d2e2b713dbab6763ab124b2d3db169c76453a3cbe877016731c622618c96",
        "scan single_mode --grid-points 614 --both-branches stdout":
            "e5aff850f99b19e879a65b65af7244a636b290aa192dcccfa101d4b8959d8612",
        "scan three_modes --grid-points 841 --both-branches --wavelength-avg stdout":
            "ea9cad4b845052d8ca8acedd0b493510472151ffa26deaf2e7108fe0f9c3e8b1",
        "fedorov three_modes --zero-width-slits stdout":
            "ba95b278c7d36f40e29c0f99b749c977534aa1ba22ddcd09d1af2bff5485f5cf",
        "fedorov three_modes --grid-points 841 --both-branches --zero-width-slits stdout":
            "0213f6226cdc9040a642e1ca63bd439707336b1e14803e381d45b51601ad5fb0",
        "scan three_modes --idler-center -0.68 stdout":
            "5ed5ab3117018c52a9ee6300a531a93b505e997bd3c13cfe62ba50066f57e0b5",
        "scan three_modes --idler-center -0.68 --zero-width-slits stdout":
            "c9007c8c81d8c44010addce91874ede90f48426484c793a278d529f7d725dc11",
        "scan three_modes --wavelength-avg --zero-width-slits stdout":
            "18c7298176494f9159e342e1d3f19043be510240f6e31478d81031df2ac22906",
        "pump three_modes stdout":
            "ef801ff0ff052ca1ec17ab6a934d8dc0a9c2a23ecab2c756016127164c68a3bd",
        "crosstalk crosstalk stdout":
            "b835cedc05c235009e9097834322a3ee12319909e0c7c110021e681c6890631c",
        "hologram hologram stdout":
            "9acff8fe3c4466c1613c1a4ecb701b6ff8831740520cdb3b5367ad89a9c6c37d",
        "crosstalk single_mode --grid-points 614 --both-branches crosstalk.csv":
            "7906ce11cc2ccd81ebdfaafc948ffa8f48eeafc8f65e98372689b285bbe770a8",
        "crosstalk single_mode --grid-points 614 --both-branches stdout":
            "d2668210bcf676c0768f84aad2cdbf273f1f2c2540f872ca5c9fdc3b8d342c0c",
        "hologram single_mode hologram.pgm":
            "2a9fb429d8e39519ddd74502872f941d9fe515f645bcda0115111cfbefaf4b69",
        "hologram single_mode stdout":
            "85933a5a4d96e24bb44eb07cbbd8c8af463b7f8241876b90b7f30769b3d7eaa2",
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
