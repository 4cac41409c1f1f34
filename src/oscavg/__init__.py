"""oscavg: averaged dynamics for particles in rapidly oscillating potentials.

Build the effective force law (mean potential, oscillation-strength
correction, magnetic-like coupling) for a potential that oscillates rapidly
in time, map full states to guiding-center states, and verify the model's
order of accuracy by direct simulation.
"""

from .fields import (CallablePotential, CallableStatic, FourierSeries,
                     Order1Potential, StaticPotential, TimePeriodicPotential,
                     fd_gradient, fd_hessian)
from .averaging import AveragedSystem, FieldSpectra, assemble
from .dynamics import (DumbbellTrajectory, Trajectory, guiding_center,
                       integrate_averaged, integrate_averaged_ladder, integrate_dumbbell,
                       integrate_full, integrate_second_order, load_trajectory,
                       save_dumbbell, save_trajectory, transform_trajectory)
from .analysis import (Comparison, ConvergenceReport, PrecessionReport,
                       closed_form_checks, compare, compare_ladder, energy_drift, fit_order,
                       guiding_convergence, guided_run, measure_precession, position_gap)
from . import scenarios

__version__ = "0.1.0"
