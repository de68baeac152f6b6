"""wgscat: resolvent expansions and channel scattering for straight waveguides."""

__version__ = "0.1.0"

from . import birman, errors, expansion, inversion, linalg, scattering, waveguide  # noqa: F401
