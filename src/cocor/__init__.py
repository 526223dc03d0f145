"""Contrastive pretraining with composite-augmentation consistency and a
learned monotonic deviation predictor, trained by alternating bi-level
updates."""

__version__ = "0.1.0"

from .augment import (BasicTransform, TransformId, apply_basic, apply_composite,
                      composition_vector, sample_composite)
from .bilevel import (MetricsRecord, Run, TrainState, collapsed_scalar, dacl,
                      deviation_gap_coefficient, encoder_step, hypergradient_oracle,
                      pmnn_step, probe_step, train)
from .config import ConfigError, RunConfig, load_config
from .data import Dataset, load_idx, synth_dataset, weak_augment, write_idx
from .encoder import (EncoderConfig, encode_batch, init_encoder_params, load_checkpoint,
                      momentum_update, save_checkpoint)
from .harness import ablate_pmnn, build_dataset, linear_eval, random_encoder_baseline
from .losses import (NegativeQueue, consistency_loss_abs, consistency_loss_softplus,
                     contrastive_loss, cross_entropy)
from .numcore import ParamSet, SgdState, grad_check, make_rng, sgd_step
from .pmnn import init_pmnn_params
