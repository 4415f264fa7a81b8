"""Residual networks: ResNet-20 (CIFAR-style) and ResNet-18 (ImageNet-style).

Both are workloads of the paper's evaluation.  The topologies follow He et
al.; a ``width_multiplier`` and configurable input size let tests and quick
examples run scaled-down instances while keeping the layer structure (and
hence the crossbar-mapping behaviour) identical.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.nn.activations import ReLU
from repro.nn.layers import Conv2d, Flatten, Linear
from repro.nn.module import Identity, Module, Sequential
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import GlobalAvgPool2d, MaxPool2d
from repro.utils.rng import SeedLike, derive_seed, new_rng


class BasicBlock(Module):
    """Standard two-convolution residual block with optional downsampling.

    ``forward``/``backward`` handle the skip connection explicitly since the
    framework has no tape-based autograd.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        stride: int = 1,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.conv1 = Conv2d(
            in_channels, out_channels, kernel_size=3, stride=stride, padding=1,
            bias=False, rng=derive_seed(seed, "conv1"),
        )
        self.bn1 = BatchNorm2d(out_channels)
        self.relu1 = ReLU()
        self.conv2 = Conv2d(
            out_channels, out_channels, kernel_size=3, stride=1, padding=1,
            bias=False, rng=derive_seed(seed, "conv2"),
        )
        self.bn2 = BatchNorm2d(out_channels)
        self.relu2 = ReLU()
        if stride != 1 or in_channels != out_channels:
            self.downsample = Sequential(
                Conv2d(
                    in_channels, out_channels, kernel_size=1, stride=stride,
                    padding=0, bias=False, rng=derive_seed(seed, "down"),
                ),
                BatchNorm2d(out_channels),
            )
        else:
            self.downsample = Identity()

    def forward(self, x: np.ndarray) -> np.ndarray:
        # One statement per layer, so each input is released once consumed,
        # and the skip branch last, so its output is not held across the
        # residual branch (the branches are independent).
        out = self.relu1(self.bn1(self.conv1(x)))
        out = self.conv2(out)
        out = self.bn2(out)
        identity = self.downsample(x)
        out = np.add(out, identity, out=self.step_arrays().like(out, identity))
        del identity
        return self.relu2(out)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad_sum = self.relu2.backward(grad_out)
        # Residual branch.
        grad_branch = self.bn2.backward(grad_sum)
        grad_branch = self.conv2.backward(grad_branch)
        grad_branch = self.relu1.backward(grad_branch)
        grad_branch = self.bn1.backward(grad_branch)
        grad_branch = self.conv1.backward(grad_branch)
        # Skip branch.
        grad_skip = self.downsample.backward(grad_sum)
        return np.add(
            grad_branch, grad_skip, out=self.step_arrays().like(grad_branch, grad_skip)
        )


class _ResNetBase(Module):
    """Shared stem/stage/head plumbing for the two ResNet variants."""

    def __init__(self) -> None:
        super().__init__()

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = self.stem(x)
        for stage in self._stages():
            x = stage(x)
        return self.head(x)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        grad = self.head.backward(grad_out)
        for stage in reversed(self._stages()):
            grad = stage.backward(grad)
        return self.stem.backward(grad)

    def _stages(self) -> List[Sequential]:
        raise NotImplementedError


class ResNet20(_ResNetBase):
    """CIFAR-style ResNet-20: 3 stages × 3 basic blocks, 16/32/64 channels."""

    def __init__(
        self,
        num_classes: int = 10,
        in_channels: int = 3,
        width_multiplier: float = 1.0,
        blocks_per_stage: int = 3,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        seed = int(new_rng(rng).integers(0, 2**31 - 1))
        widths = [max(4, int(round(w * width_multiplier))) for w in (16, 32, 64)]
        self.num_classes = int(num_classes)
        self.in_channels = int(in_channels)

        self.stem = Sequential(
            Conv2d(in_channels, widths[0], kernel_size=3, stride=1, padding=1,
                   bias=False, rng=derive_seed(seed, "stem")),
            BatchNorm2d(widths[0]),
            ReLU(),
        )
        self.stage1 = self._make_stage(widths[0], widths[0], blocks_per_stage, 1,
                                       derive_seed(seed, "s1"))
        self.stage2 = self._make_stage(widths[0], widths[1], blocks_per_stage, 2,
                                       derive_seed(seed, "s2"))
        self.stage3 = self._make_stage(widths[1], widths[2], blocks_per_stage, 2,
                                       derive_seed(seed, "s3"))
        self.head = Sequential(
            GlobalAvgPool2d(),
            Linear(widths[2], num_classes, rng=derive_seed(seed, "fc")),
        )

    @staticmethod
    def _make_stage(in_ch: int, out_ch: int, blocks: int, stride: int, seed: int) -> Sequential:
        layers: List[Module] = [BasicBlock(in_ch, out_ch, stride, seed=derive_seed(seed, 0))]
        for i in range(1, blocks):
            layers.append(BasicBlock(out_ch, out_ch, 1, seed=derive_seed(seed, i)))
        return Sequential(*layers)

    def _stages(self) -> List[Sequential]:
        return [self.stage1, self.stage2, self.stage3]


class ResNet18(_ResNetBase):
    """ImageNet-style ResNet-18: 4 stages × 2 basic blocks, 64..512 channels.

    The default configuration keeps the original topology but accepts small
    input images (32×32 or 64×64 synthetic ImageNet) by making the stem's
    7×7/stride-2 convolution and max-pool optional via ``small_input``.
    """

    def __init__(
        self,
        num_classes: int = 100,
        in_channels: int = 3,
        width_multiplier: float = 1.0,
        small_input: bool = True,
        rng: SeedLike = None,
    ) -> None:
        super().__init__()
        seed = int(new_rng(rng).integers(0, 2**31 - 1))
        widths = [max(4, int(round(w * width_multiplier))) for w in (64, 128, 256, 512)]
        self.num_classes = int(num_classes)
        self.in_channels = int(in_channels)
        self.small_input = bool(small_input)

        if small_input:
            self.stem = Sequential(
                Conv2d(in_channels, widths[0], kernel_size=3, stride=1, padding=1,
                       bias=False, rng=derive_seed(seed, "stem")),
                BatchNorm2d(widths[0]),
                ReLU(),
            )
        else:
            self.stem = Sequential(
                Conv2d(in_channels, widths[0], kernel_size=7, stride=2, padding=3,
                       bias=False, rng=derive_seed(seed, "stem")),
                BatchNorm2d(widths[0]),
                ReLU(),
                MaxPool2d(3, stride=2),
            )
        self.stage1 = ResNet20._make_stage(widths[0], widths[0], 2, 1, derive_seed(seed, "s1"))
        self.stage2 = ResNet20._make_stage(widths[0], widths[1], 2, 2, derive_seed(seed, "s2"))
        self.stage3 = ResNet20._make_stage(widths[1], widths[2], 2, 2, derive_seed(seed, "s3"))
        self.stage4 = ResNet20._make_stage(widths[2], widths[3], 2, 2, derive_seed(seed, "s4"))
        self.head = Sequential(
            GlobalAvgPool2d(),
            Linear(widths[3], num_classes, rng=derive_seed(seed, "fc")),
        )

    def _stages(self) -> List[Sequential]:
        return [self.stage1, self.stage2, self.stage3, self.stage4]
