"""Station-keeping workbench: 3-DOF vessel plant, adaptive RBF backstepping
and PID controllers, environmental disturbance models, and a scenario-driven
simulation harness with CSV trace output."""

__version__ = "0.1.0"
