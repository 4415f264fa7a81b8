"""A small training loop for the reproduction's model zoo.

The paper uses *pretrained* networks and applies post-training quantization
only.  Because this environment has no pretrained weights, we train compact
versions of the same topologies on synthetic datasets with this trainer; the
co-design pipeline then treats the result exactly like a pretrained model.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.nn.layers import Conv2d
from repro.nn.loss import CrossEntropyLoss, Loss
from repro.nn.metrics import top1_accuracy
from repro.nn.module import Module
from repro.nn.optim import LRScheduler, Optimizer
from repro.utils.logging import get_logger

logger = get_logger("nn.trainer")


@dataclasses.dataclass
class EpochStats:
    """Summary of one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: Optional[float] = None
    val_accuracy: Optional[float] = None
    learning_rate: Optional[float] = None
    seconds: float = 0.0


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch statistics collected by :class:`Trainer.fit`."""

    epochs: List[EpochStats] = dataclasses.field(default_factory=list)

    @property
    def final_train_accuracy(self) -> float:
        return self.epochs[-1].train_accuracy if self.epochs else 0.0

    @property
    def final_val_accuracy(self) -> Optional[float]:
        return self.epochs[-1].val_accuracy if self.epochs else None

    def as_dict(self) -> Dict[str, List[float]]:
        """Column-oriented view convenient for tabulation."""
        return {
            "epoch": [e.epoch for e in self.epochs],
            "train_loss": [e.train_loss for e in self.epochs],
            "train_accuracy": [e.train_accuracy for e in self.epochs],
            "val_accuracy": [
                e.val_accuracy if e.val_accuracy is not None else float("nan")
                for e in self.epochs
            ],
        }


class Trainer:
    """Minimal supervised-classification training loop.

    Training computes no gradient it throws away (see :meth:`train_epoch`),
    and each layer's ``backward`` drops the activations its forward cached,
    so a trained model holds none.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` mapping ``(N, C, H, W)`` images to
        ``(N, num_classes)`` logits.
    optimizer:
        Optimiser over ``model.parameters()``.
    loss_fn:
        Defaults to :class:`CrossEntropyLoss`.
    scheduler:
        Optional learning-rate schedule stepped once per epoch.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        loss_fn: Optional[Loss] = None,
        scheduler: Optional[LRScheduler] = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
        self.scheduler = scheduler

    def train_epoch(self, loader) -> EpochStats:
        """Run one pass over ``loader`` (an iterable of ``(images, labels)``).

        Nothing reads the gradient with respect to the batch, so the
        :class:`Conv2d` that receives it skips its input gradient
        (:meth:`Conv2d.discard_input_grad`).  A forward hook on every leaf
        module finds that layer by matching the batch object.  When several
        leaves receive the batch (a residual block's two branches), the
        model's backward adds their input gradients, so all are computed.
        Every parameter gradient is computed as before.
        """
        self.model.train()
        images = None
        fed: List[Module] = []

        def record_batch_consumer(module: Module, x: np.ndarray, out: np.ndarray) -> None:
            if x is images:
                fed.append(module)

        handles = [
            module.register_forward_hook(record_batch_consumer)
            for module in self.model.modules()
            if next(module.children(), None) is None
        ]
        losses: List[float] = []
        accuracies: List[float] = []
        start = time.perf_counter()
        try:
            for images, labels in loader:
                fed.clear()
                self.optimizer.zero_grad()
                logits = self.model(images)
                if len(fed) == 1 and isinstance(fed[0], Conv2d):
                    fed[0].discard_input_grad()
                loss = self.loss_fn(logits, labels)
                grad = self.loss_fn.backward()
                self.model.backward(grad)
                self.optimizer.step()
                losses.append(loss)
                accuracies.append(top1_accuracy(logits, labels))
        finally:
            for handle in handles:
                handle.remove()
        return EpochStats(
            epoch=0,
            train_loss=float(np.mean(losses)) if losses else float("nan"),
            train_accuracy=float(np.mean(accuracies)) if accuracies else 0.0,
            seconds=time.perf_counter() - start,
        )

    def evaluate(self, loader) -> Dict[str, float]:
        """Evaluate loss and accuracy on an iterable of ``(images, labels)``."""
        self.model.eval()
        losses: List[float] = []
        correct = 0
        total = 0
        for images, labels in loader:
            logits = self.model(images)
            losses.append(self.loss_fn(logits, labels))
            correct += int((logits.argmax(axis=1) == labels).sum())
            total += labels.shape[0]
        accuracy = correct / total if total else 0.0
        return {
            "loss": float(np.mean(losses)) if losses else float("nan"),
            "accuracy": float(accuracy),
        }

    def fit(
        self,
        train_loader_fn: Callable[[], object],
        epochs: int,
        val_loader_fn: Optional[Callable[[], object]] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Train for ``epochs`` epochs.

        ``train_loader_fn``/``val_loader_fn`` are zero-argument callables
        returning a fresh iterable each epoch (so shuffling can differ per
        epoch).
        """
        history = TrainingHistory()
        for epoch in range(1, epochs + 1):
            stats = self.train_epoch(train_loader_fn())
            stats.epoch = epoch
            stats.learning_rate = self.optimizer.lr
            if val_loader_fn is not None:
                val = self.evaluate(val_loader_fn())
                stats.val_loss = val["loss"]
                stats.val_accuracy = val["accuracy"]
            if self.scheduler is not None:
                self.scheduler.step()
            history.epochs.append(stats)
            if verbose:
                logger.warning(
                    "epoch %d: train_loss=%.4f train_acc=%.3f val_acc=%s",
                    epoch,
                    stats.train_loss,
                    stats.train_accuracy,
                    f"{stats.val_accuracy:.3f}" if stats.val_accuracy is not None else "n/a",
                )
        self.model.eval()
        return history
