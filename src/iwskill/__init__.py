"""Importance-weighted skill learning from obstacle-influenced demonstrations.

Demonstrations recorded in cluttered scenes are discounted near obstacles,
so the learned stochastic skill dynamics capture the intended motion rather
than incidental detours. The learned dynamics induce a Gaussian trajectory
prior with a block-tridiagonal precision; reproduction conditions that prior
on start/goal anchors and obstacle factors by MAP inference.
"""

from .batch import (SingularSystemError, SkillModel, effective_sample_size, fit_intervals,
                    learn_batch_weighted, load_model, save_model)
from .demos import (DemoSet, RawDemo, StateTrajectory, dtw_align, estimate_states,
                    fit_cubic_spline, load_raw_demo, save_raw_demo)
from .environment import (Box, Environment, SdfGridError, SignedDistanceField, Sphere, WeightParams,
                          build_sdf, hinge_cost, load_environment, signed_distance,
                          weight_trajectory)
from .incremental import (IncrementalLearner, assimilate_demo, extract_map, load_checkpoint,
                          save_checkpoint)
from .prior import GaussianTrajectoryPrior, initial_state_distribution, sample_trajectories
from .reproduction import (ObstacleFactor, OptimizerOptions, ReproductionProblem,
                           SingularNormalEquationsError, Solution, StateAnchor,
                           negative_log_posterior, optimize_map)

__version__ = "0.1.0"
