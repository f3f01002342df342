"""Matrix-free waveform inversion toolkit: gradient-only Gauss-Newton and
baseline optimizers on a self-contained 2D acoustic testbed."""

from .gogn import GoJacobian, GognStep, assemble, step_woodbury
from .harness import (ConfigError, ExperimentConfig, GeometrySpec, TargetModel,
                      TargetSpec, gen_geometry, gen_target, load_config,
                      prepare_experiment, run_comparison, write_data_dir)
from .ledger import LedgerSnapshot, SolveLedger
from .optim import (Budget, LinesearchPolicy, RunResult, TraceRecord,
                    linesearch, run_gncg, run_gogn, run_lbfgs, run_nlcg)
from .problem import (DataSet, FwiProblem, Geometry, MisfitReport,
                      make_noisy_data, receiver_weights)
from .regularizer import SmoothingOperator
from .wave import (ModelGrid, SimGrid, SolverBlowupError, SourceSpec,
                   Wavefield, adjoint_solve, born_solve, cfl_substeps,
                   forward_solve, ricker)

__version__ = "0.1.0"
