"""resguard: stress-testing regression-based sensor anomaly detectors.

Train per-sensor predictors on clean plant data, synthesize provably
stealthy sensor-manipulation attacks against them (exact mixed-binary
optimization for affine detectors, iterative linearization for neural and
ensemble detectors), and pick resilient detection thresholds that shrink
the worst-case attack impact without raising the false-alarm count.
"""

from .plant import (
    Column,
    CsvParseError,
    Dataset,
    InstabilityError,
    Nonlinearity,
    PlantConfig,
    Role,
    desk_config,
    load_csv,
    paper_scale_config,
    save_csv,
    simulate,
    split_sequential,
)
from .models import (
    EnsembleModel,
    LinearModel,
    NeuralModel,
    Scaler,
    TrainConfig,
    TrainingDivergedError,
    fit_linear,
    fit_nn,
    normalized_mse,
    predict_batch,
    taylor_linearize,
)
from .detector import (
    DetectorEntry,
    FPCurve,
    PredictorBank,
    ThresholdConfig,
    calibrate_baseline,
    fp_curve,
    fp_inverse,
    residuals,
    train_bank,
)
from .lp_milp import (
    LinearProgram,
    MILPProblem,
    MILPSolution,
    Status,
    solve_lp,
    solve_milp,
)
from .attack import (
    Alg1Config,
    AttackInstance,
    AttackResult,
    Direction,
    build_attack_milp,
    default_alg1_config,
    instance_from_dataset,
    run_attack,
    stealth_margin,
)
from .defense import (
    DefenseConfig,
    DefenseOutcome,
    ImpactReport,
    impact,
    resilient_thresholds,
    total_false_alarms,
)

__version__ = "0.1.0"
