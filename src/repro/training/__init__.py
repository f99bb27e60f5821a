"""Training harness: generic trainer, pre-training recipe and evaluation."""

from repro.training.trainer import Trainer, TrainingConfig
from repro.training.pretrain import PretrainConfig, pretrain_model
from repro.training.evaluate import evaluate_accuracy, noisy_accuracy
from repro.training.metrics import accuracy_from_logits, AverageMeter
from repro.training.checkpoint import save_checkpoint, load_checkpoint

__all__ = [
    "Trainer",
    "TrainingConfig",
    "PretrainConfig",
    "pretrain_model",
    "evaluate_accuracy",
    "noisy_accuracy",
    "accuracy_from_logits",
    "AverageMeter",
    "save_checkpoint",
    "load_checkpoint",
]
