"""Design and analysis toolkit for a tandem-actuated fruit-harvesting gripper.

Subsystems:
  linkage    crank-slider statics of the finger clamp region
  leadscrew  motor torque <-> nut thrust transmission
  campath    two-region cam tracks and finger pose solving
  wrench     grasp strength via contact-wrench linear programming
  picksim    pick protocol and Monte-Carlo field campaigns
  cli        command-line front end over all of the above
"""

from .config import GraspModelParams
from .leadscrew import DEFAULT_SCREW, ScrewParams
from .linkage import DEFAULT_LINKAGE, DEFAULT_TRAVEL, LinkageParams, TravelRange

__all__ = [
    "ActuationMode",
    "DEFAULT_LINKAGE",
    "DEFAULT_SCREW",
    "DEFAULT_TRAVEL",
    "GraspModelParams",
    "GraspScenario",
    "LinkageParams",
    "PullType",
    "ScrewParams",
    "TravelRange",
]

__version__ = "0.1.0"


def __getattr__(name):
    # the wrench names load numpy and the LP layer only when first asked for
    if name in ("ActuationMode", "GraspScenario", "PullType"):
        from . import wrench
        return getattr(wrench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
