"""Tests for the model zoo, the trainer and the dataset substrates."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    DataLoader,
    ImageSpec,
    build_dataset,
    build_prototypes,
    sample_calibration_set,
    sample_images,
    synthetic_cifar10,
    synthetic_imagenet,
    synthetic_mnist,
)
from harness import reference_nn
from repro.nn import Adam, Conv2d, CrossEntropyLoss, GlobalAvgPool2d, Linear, SGD, Sequential, Trainer
from repro.nn import functional as F
from repro.nn.models import (
    BasicBlock,
    Fire,
    LeNet5,
    ResNet18,
    ResNet20,
    SqueezeNet11,
    available_models,
    build_model,
    workload_info,
)


# --------------------------------------------------------------------- #
# datasets
# --------------------------------------------------------------------- #
class TestDatasets:
    def test_factories_shapes(self):
        mnist = synthetic_mnist(train_size=32, test_size=16, seed=0)
        cifar = synthetic_cifar10(train_size=32, test_size=16, seed=0)
        imagenet = synthetic_imagenet(train_size=32, test_size=16, seed=0, image_size=48)
        assert mnist.train.images.shape == (32, 1, 28, 28)
        assert cifar.test.images.shape == (16, 3, 32, 32)
        assert imagenet.image_shape == (3, 48, 48)
        assert mnist.num_classes == 10

    def test_images_normalised_and_deterministic(self):
        a = synthetic_cifar10(train_size=16, test_size=8, seed=5)
        b = synthetic_cifar10(train_size=16, test_size=8, seed=5)
        assert a.train.images.min() >= 0.0 and a.train.images.max() <= 1.0
        np.testing.assert_array_equal(a.train.images, b.train.images)
        np.testing.assert_array_equal(a.train.labels, b.train.labels)
        c = synthetic_cifar10(train_size=16, test_size=8, seed=6)
        assert not np.array_equal(a.train.images, c.train.images)

    def test_prototypes_are_class_specific(self):
        spec = ImageSpec(num_classes=4, channels=3, height=16, width=16)
        protos = build_prototypes(spec, seed=1)
        assert protos.shape == (4, 3, 16, 16)
        assert not np.allclose(protos[0], protos[1])

    def test_sample_images_shapes_and_jitter(self, rng):
        spec = ImageSpec(num_classes=3, channels=1, height=12, width=12)
        protos = build_prototypes(spec, seed=0)
        labels = np.array([0, 1, 2, 0])
        images = sample_images(spec, labels, protos, rng=rng)
        assert images.shape == (4, 1, 12, 12)
        # Jitter means two samples of the same class differ.
        again = sample_images(spec, labels, protos, rng=rng)
        assert not np.allclose(images, again)

    def test_build_dataset_by_name(self):
        ds = build_dataset("mnist", train_size=8, test_size=4, seed=0)
        assert ds.name == "synthetic-mnist"
        with pytest.raises(KeyError):
            build_dataset("svhn")

    def test_dataset_split_subset_and_validation(self):
        ds = synthetic_mnist(train_size=16, test_size=8, seed=0)
        subset = ds.train.subset(np.array([0, 3, 5]))
        assert len(subset) == 3
        with pytest.raises(ValueError):
            type(ds.train)(images=ds.train.images, labels=ds.train.labels[:-1])

    def test_dataloader_batching_and_shuffle(self):
        ds = synthetic_mnist(train_size=20, test_size=8, seed=0)
        loader = DataLoader(ds.train, batch_size=8, shuffle=False)
        batches = list(loader)
        assert len(loader) == 3 and batches[-1][0].shape[0] == 4
        drop = DataLoader(ds.train, batch_size=8, drop_last=True)
        assert len(drop) == 2 and all(x.shape[0] == 8 for x, _ in drop)
        shuffled = DataLoader(ds.train, batch_size=20, shuffle=True, seed=1)
        (x1, y1), = list(shuffled)
        assert not np.array_equal(y1, ds.train.labels)
        assert sorted(y1.tolist()) == sorted(ds.train.labels.tolist())

    def test_calibration_sampling(self):
        ds = synthetic_mnist(train_size=64, test_size=8, seed=0)
        calib = sample_calibration_set(ds.train, num_images=20, seed=0)
        assert len(calib) == 20
        # Stratified sampling covers most classes.
        assert len(np.unique(calib.labels)) >= 8
        random_calib = sample_calibration_set(ds.train, num_images=20, stratified=False, seed=0)
        assert len(random_calib) == 20
        with pytest.raises(ValueError):
            sample_calibration_set(ds.train, num_images=1000)


# --------------------------------------------------------------------- #
# model zoo
# --------------------------------------------------------------------- #
class TestModels:
    def test_registry_contents(self):
        assert set(available_models()) == {"lenet5", "resnet20", "resnet18", "squeezenet1_1"}
        info = workload_info("resnet20")
        assert info["dataset"] == "cifar10"
        with pytest.raises(KeyError):
            workload_info("vgg16")
        with pytest.raises(KeyError):
            build_model("lenet5", preset="huge")
        with pytest.raises(KeyError):
            build_model("alexnet")

    @pytest.mark.parametrize("name,shape", [
        ("lenet5", (2, 1, 28, 28)),
        ("resnet20", (2, 3, 32, 32)),
        ("resnet18", (2, 3, 32, 32)),
        ("squeezenet1_1", (2, 3, 32, 32)),
    ])
    def test_forward_shapes(self, name, shape, rng):
        model = build_model(name, preset="tiny", rng=0)
        model.eval()
        out = model(rng.normal(size=shape))
        assert out.shape == (2, 10)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name,shape", [
        ("lenet5", (2, 1, 28, 28)),
        ("resnet20", (2, 3, 32, 32)),
        ("squeezenet1_1", (2, 3, 32, 32)),
    ])
    def test_backward_produces_gradients(self, name, shape, rng):
        model = build_model(name, preset="tiny", rng=0)
        model.train()
        x = rng.normal(size=shape)
        labels = np.array([0, 1])
        loss = CrossEntropyLoss()
        loss(model(x), labels)
        model.zero_grad()
        model(x)
        model.backward(loss.backward())
        grad_norms = [np.abs(p.grad).sum() for p in model.parameters()]
        assert sum(g > 0 for g in grad_norms) > len(grad_norms) // 2

    def test_basic_block_residual_path(self, rng):
        block = BasicBlock(4, 8, stride=2, seed=0)
        block.eval()
        out = block(rng.normal(size=(2, 4, 8, 8)))
        assert out.shape == (2, 8, 4, 4)
        identity_block = BasicBlock(4, 4, stride=1, seed=0)
        identity_block.eval()
        assert identity_block(rng.normal(size=(2, 4, 8, 8))).shape == (2, 4, 8, 8)

    def test_fire_module_concatenation(self, rng):
        fire = Fire(8, 4, 6, 6, seed=0)
        out = fire(rng.normal(size=(2, 8, 6, 6)))
        assert out.shape == (2, 12, 6, 6)

    def test_resnet18_full_input_stem(self, rng):
        model = ResNet18(num_classes=5, width_multiplier=0.25, small_input=False, rng=0)
        model.eval()
        out = model(rng.normal(size=(1, 3, 64, 64)))
        assert out.shape == (1, 5)

    def test_lenet_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            LeNet5(image_size=8)

    def test_reproducible_initialisation(self):
        a = build_model("resnet20", preset="tiny", rng=3)
        b = build_model("resnet20", preset="tiny", rng=3)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)


# --------------------------------------------------------------------- #
# trainer
# --------------------------------------------------------------------- #
class TestTrainer:
    def test_training_reduces_loss_and_reaches_above_chance(self):
        ds = synthetic_mnist(train_size=128, test_size=64, seed=2)
        model = build_model("lenet5", preset="tiny", rng=2)
        trainer = Trainer(model, Adam(model.parameters(), lr=3e-3))
        history = trainer.fit(
            lambda: DataLoader(ds.train, 32, shuffle=True, seed=0),
            epochs=8,
            val_loader_fn=lambda: DataLoader(ds.test, 64),
        )
        assert len(history.epochs) == 8
        assert history.epochs[-1].train_loss < history.epochs[0].train_loss
        assert history.final_train_accuracy > 0.2  # well above 10% chance
        columns = history.as_dict()
        assert len(columns["epoch"]) == 8
        assert not model.training  # fit() leaves the model in eval mode

    def test_evaluate_returns_loss_and_accuracy(self):
        ds = synthetic_mnist(train_size=32, test_size=32, seed=2)
        model = build_model("lenet5", preset="tiny", rng=2)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.01))
        metrics = trainer.evaluate(DataLoader(ds.test, 16))
        assert set(metrics) == {"loss", "accuracy"}
        assert 0.0 <= metrics["accuracy"] <= 1.0


def _basic_block_stem(rng):
    """A model whose batch feeds two convolutions (residual branch and skip)."""
    return Sequential(
        BasicBlock(3, 4, stride=2, seed=rng), GlobalAvgPool2d(), Linear(4, 10, rng=rng)
    )


def _train_two_epochs(name, validate=False):
    dataset = build_dataset(
        "mnist" if name == "lenet5" else "cifar10", train_size=80, test_size=16, seed=1
    )
    if name == "basic_block_stem":
        model = _basic_block_stem(3)
    else:
        model = build_model(name, preset="tiny", rng=3)
    trainer = Trainer(model, Adam(model.parameters(), lr=3e-3))
    # Batches of 32, 32 and 16 images; an evaluation between epochs drops
    # the step arrays, so the next epoch allocates them again.
    trainer.fit(
        lambda: DataLoader(dataset.train, 32, shuffle=True, seed=5), epochs=2,
        val_loader_fn=(lambda: DataLoader(dataset.test, 8)) if validate else None,
    )
    return model


class TestTrainingIdentity:
    """Training gives the same weights as the plain NCHW reference kernels."""

    @pytest.mark.parametrize("name", ["lenet5", "resnet20", "squeezenet1_1", "basic_block_stem"])
    def test_state_dict_bytes_equal_reference_training(self, name, monkeypatch):
        reference_nn.install(monkeypatch)
        expected = _train_two_epochs(name).state_dict()
        monkeypatch.undo()
        actual = _train_two_epochs(name).state_dict()
        assert list(actual) == list(expected)
        for key, value in expected.items():
            assert actual[key].dtype == value.dtype, key
            assert actual[key].tobytes() == value.tobytes(), key

    @pytest.mark.parametrize("name", ["lenet5", "resnet20"])
    def test_state_dict_bytes_equal_reference_training_with_validation(self, name, monkeypatch):
        reference_nn.install(monkeypatch)
        expected = _train_two_epochs(name, validate=True).state_dict()
        monkeypatch.undo()
        actual = _train_two_epochs(name, validate=True).state_dict()
        assert list(actual) == list(expected)
        for key, value in expected.items():
            assert actual[key].tobytes() == value.tobytes(), key

    def test_one_resnet20_step_folds_every_conv_but_the_batch_one(self, rng, monkeypatch):
        model = build_model("resnet20", preset="tiny", rng=0)
        convs = [m for m in model.modules() if isinstance(m, Conv2d)]
        folded = []
        col2im = F.col2im
        monkeypatch.setattr(
            F, "col2im",
            lambda cols, x_shape, *args, **kwargs: (
                folded.append(x_shape) or col2im(cols, x_shape, *args, **kwargs)
            ),
        )
        images = rng.normal(size=(4, 3, 32, 32))
        Trainer(model, SGD(model.parameters(), lr=0.01)).train_epoch([(images, np.arange(4))])
        assert len(folded) == len(convs) - 1
        assert images.shape not in folded

    def test_fit_leaves_no_activations_and_eval_stores_none(self, rng):
        model = _train_two_epochs("resnet20")
        assert not model.training
        assert {name: reference_nn.held_arrays(m) for name, m in model.named_modules()
                if reference_nn.held_arrays(m)} == {}
        model(rng.normal(size=(2, 3, 32, 32)))
        assert all(reference_nn.held_arrays(m) == [] for m in model.modules())


class TestStepMemory:
    """After its first pass a training step allocates no activation-sized
    array, and ``fit`` hands the freed heap back once."""

    @pytest.mark.parametrize(
        "name,shape", [("lenet5", (32, 1, 28, 28)), ("resnet20", (32, 3, 32, 32))]
    )
    def test_a_second_step_peaks_under_2_mib_above_its_start(self, name, shape):
        import tracemalloc

        gen = np.random.default_rng(0)
        model = build_model(name, preset="tiny", rng=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
        batch = [(gen.normal(size=shape), gen.integers(0, 10, size=shape[0]))]
        tracemalloc.start()
        try:
            trainer.train_epoch(batch)
            first_peak = tracemalloc.get_traced_memory()[1]
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trainer.train_epoch(batch)
            second_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second_peak - start < 2 * 2**20
        assert first_peak > 4 * 2**20  # the first step did allocate its arrays

    def test_fit_releases_the_heap_once_after_dropping_the_step_arrays(self, monkeypatch):
        from repro.nn import trainer as trainer_module

        released = []
        model = build_model("lenet5", preset="tiny", rng=0)
        monkeypatch.setattr(
            trainer_module, "release_heap",
            lambda: released.append([m._step_arrays for m in model.modules()]),
        )
        dataset = build_dataset("mnist", train_size=40, test_size=16, seed=1)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
        for fits in (1, 2):
            trainer.fit(
                lambda: DataLoader(dataset.train, 16), epochs=2,
                val_loader_fn=lambda: DataLoader(dataset.test, 16),
            )
            assert len(released) == fits
            assert set(released[-1]) == {None}
