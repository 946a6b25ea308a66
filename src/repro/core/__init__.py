"""The paper's contribution: scalability techniques and scaling models.

Functional layer (actually trains numpy models, used by the equivalence
tests and examples):

* :mod:`repro.core.data_parallel` — synchronous data-parallel training with
  ring / 2-D hierarchical gradient summation.
* :mod:`repro.core.weight_update_sharding` — Section 3.2: reduce-scatter
  gradients, shard the optimizer update (with distributed trust-ratio
  norms for LARS/LAMB), all-gather updated weights.
* :mod:`repro.core.model_parallel` — Section 3.1's feature-dimension
  sharding (Mesh-TensorFlow style) and hybrid data x model parallelism with
  peer gradient reduction (Figure 4).
* :mod:`repro.core.trainer` — the unified construction surface:
  :class:`TrainerConfig` + :func:`make_trainer` build any of the above,
  and every ``step`` returns a :class:`StepResult`.

Analytic layer (regenerates the paper's evaluation):

* :mod:`repro.core.strategy` — parallelism configuration.
* :mod:`repro.core.step_time` — per-step compute/communication/update model.
* :mod:`repro.core.overlap` — backprop-overlapped bucketed gradient
  collectives: overlap-aware step time, exposed-comm accounting, and the
  bucket-size trade-off.
* :mod:`repro.core.convergence` — steps-to-accuracy vs. batch size.
* :mod:`repro.core.end_to_end` — MLPerf end-to-end time (init + train +
  eval) model.
* :mod:`repro.core.planner` — picks the best parallelism for a model on a
  slice, reproducing the paper's per-benchmark choices.
"""

from repro.core.trainer import (
    STRATEGIES,
    StepResult,
    Trainer,
    TrainerConfig,
    make_trainer,
)
from repro.core.overlap import (
    OverlapResult,
    analytic_overlap,
    measured_overlap,
    simulate_overlap_schedule,
)
from repro.core.data_parallel import (
    SingleDeviceTrainer,
    DataParallelTrainer,
)
from repro.core.weight_update_sharding import WeightUpdateShardedTrainer
from repro.core.model_parallel import (
    FeatureShardedMLP,
    HybridParallelTrainer,
)
from repro.core.strategy import ParallelismConfig
from repro.core.step_time import StepTimeBreakdown, StepTimeModel
from repro.core.convergence import ConvergenceModel, EPOCH_TABLES
from repro.core.end_to_end import EndToEndModel, EndToEndResult
from repro.core.planner import plan_parallelism, PlanChoice
from repro.core.batchnorm import (
    local_batch_norm,
    distributed_batch_norm,
    batch_norm_group_cost,
)
from repro.core.memory import MemoryModel, MemoryFootprint
from repro.core.loop import (
    LoopResult,
    simulate_train_eval_loop,
    dlrm_eval_accumulation_ablation,
)

__all__ = [
    "STRATEGIES",
    "StepResult",
    "Trainer",
    "TrainerConfig",
    "make_trainer",
    "OverlapResult",
    "analytic_overlap",
    "measured_overlap",
    "simulate_overlap_schedule",
    "SingleDeviceTrainer",
    "DataParallelTrainer",
    "WeightUpdateShardedTrainer",
    "FeatureShardedMLP",
    "HybridParallelTrainer",
    "ParallelismConfig",
    "StepTimeBreakdown",
    "StepTimeModel",
    "ConvergenceModel",
    "EPOCH_TABLES",
    "EndToEndModel",
    "EndToEndResult",
    "plan_parallelism",
    "PlanChoice",
    "local_batch_norm",
    "distributed_batch_norm",
    "batch_norm_group_cost",
    "MemoryModel",
    "MemoryFootprint",
    "LoopResult",
    "simulate_train_eval_loop",
    "dlrm_eval_accumulation_ablation",
]
