"""Readers of the program's output files, used by the tests only.

They parse what :mod:`spdc_modes.exports` and :mod:`spdc_modes.hologram`
write, independently of the writers, so a test can check a file's content.
"""

import re
from typing import List, Tuple

import numpy as np


def read_csv(path: str) -> Tuple[List[str], np.ndarray]:
    """(header names, 2D float array) from a CSV written by the exports."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def parse_pgm(data: bytes) -> np.ndarray:
    """Levels array from a binary PGM produced by ``hologram.pgm_bytes``."""
    m = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if not m:
        raise ValueError("not a binary PGM header")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != 255:
        raise ValueError(f"expected maxval 255, got {maxval}")
    payload = data[m.end():]
    if len(payload) != w * h:
        raise ValueError(f"payload holds {len(payload)} bytes, expected {w * h}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w)
