"""Design and analysis toolkit for a tandem-actuated fruit-harvesting gripper.

Subsystems:
  linkage    crank-slider statics of the finger clamp region
  leadscrew  motor torque <-> nut thrust transmission
  campath    two-region cam tracks and finger pose solving
  wrench     grasp strength via contact-wrench linear programming
  picksim    pick protocol and Monte-Carlo field campaigns
  cli        command-line front end over all of the above
"""

# each public name's home module: ``import tandemgrip`` loads none of them,
# and a name loads its module (the wrench names numpy too) when first asked for
_HOMES = {
    "ActuationMode": "wrench",
    "DEFAULT_LINKAGE": "linkage",
    "DEFAULT_SCREW": "leadscrew",
    "DEFAULT_TRAVEL": "linkage",
    "GraspModelParams": "config",
    "GraspScenario": "wrench",
    "LinkageParams": "linkage",
    "PullType": "wrench",
    "ScrewParams": "leadscrew",
    "TravelRange": "linkage",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
