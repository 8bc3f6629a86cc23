"""Desk-scale simulator of deterministic quantum state transfer and remote
entanglement between two circuit-QED nodes over a lossy directional channel."""

__version__ = "0.1.0"

from .qops import DensityMatrix, mhz, to_mhz  # noqa: F401
from .device import LinkParams, NodeParams, load_device  # noqa: F401
from .pulse import DriveEnvelope, StarkModel  # noqa: F401
from .protocols import (  # noqa: F401
    ProtocolSpec,
    error_budget,
    run_emission,
    run_entanglement,
    run_state_transfer_qpt,
    run_transfer,
    run_transfer_efficiencies,
    run_upgrade_scenario,
)
