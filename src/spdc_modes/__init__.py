"""Biphoton angular-spectrum toolkit.

Canonical units everywhere: lengths in um, transverse wavevectors in 1/um.
All Gaussian widths follow the field convention exp(-k^2 / (2 sigma^2)).
The API lives in the submodules: import from ``spdc_modes.kernel`` and so on.
"""

__version__ = "0.1.0"
