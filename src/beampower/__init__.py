"""Two-cell downlink simulator with learned joint beamforming and power control."""

from . import sim
from .config import ConfigError, NetworkConfig

__version__ = "0.1.0"
