"""avrobust: adversarial-robustness workbench for audio/visual event tagging.

Universal PGD perturbations under Lp-ball constraints with
frequency/temporal masks, trained against a toy convolutional
self-attention tagger with selectable multimodal fusion stages, and
evaluated with mAP / AUC / d-prime reports.
"""

from .attacks import (
    AttackConfig,
    Mask,
    Perturbation,
    normalize_gradient,
    pgd_step,
    project,
    train_universal_perturbation,
)
from .audio import ClassBank, log_mel_spectrogram, synth_clip
from .autodiff import Tape, Tensor
from .config import ExperimentConfig, parse_config, serialize_config
from .errors import (
    AvrobustError,
    ConfigFileError,
    ConfigurationError,
    DimensionError,
    FormatError,
    StateError,
    ValidationError,
)
from .metrics import EvalReport, average_precision, compare_reports, d_prime, evaluate, roc_auc
from .models import (
    CsnConfig,
    CsnModel,
    FusionStage,
    ResnetModel,
    load_checkpoint,
    save_checkpoint,
    train_model,
)
from .optim import Adam

__version__ = "0.1.0"
