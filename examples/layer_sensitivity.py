"""Layer-wise noise sensitivity analysis (paper Fig. 2) on a small CNN.

Pre-trains a crossbar-mapped LeNet on the synthetic task, then injects
Gaussian crossbar noise into one encoded layer at a time and reports the
accuracy per target layer — the heterogeneous profile that motivates
per-layer pulse lengths.

Run with:  python examples/layer_sensitivity.py
"""

from repro.core import layer_noise_sensitivity
from repro.data import DataLoader, SyntheticImageConfig, make_synthetic_cifar
from repro.models import CrossbarLeNet
from repro.tensor.random import RandomState
from repro.training import PretrainConfig, evaluate_accuracy, pretrain_model
from repro.utils.seed import seed_everything


def main() -> None:
    seed_everything(1)

    config = SyntheticImageConfig(image_size=16, noise_level=0.1)
    train_set, test_set = make_synthetic_cifar(num_train=768, num_test=256, config=config, seed=4)
    train_loader = DataLoader(train_set, batch_size=32, shuffle=True, rng=RandomState(5))
    test_loader = DataLoader(test_set, batch_size=64)

    model = CrossbarLeNet(image_size=16, base_channels=8, rng=RandomState(6))
    print("pre-training crossbar LeNet...")
    pretrain_model(model, train_loader, config=PretrainConfig(epochs=10, learning_rate=2e-2))
    clean = evaluate_accuracy(model, test_loader)
    print(f"clean accuracy: {clean:.2f}%\n")

    sigma = 8.0
    print(f"injecting Gaussian crossbar noise (sigma={sigma}, 8 pulses) into ONE layer at a time:")
    results = layer_noise_sensitivity(model, test_loader, sigma=sigma, pulses=8)

    print(f"{'target layer':>12} | {'accuracy %':>10} | {'drop vs clean':>13}")
    for entry in results:
        drop = clean - entry.accuracy
        bar = "#" * max(0, int(round(drop / 2)))
        print(f"{entry.layer_name:>12} | {entry.accuracy:>10.2f} | {drop:>13.2f}  {bar}")

    most = min(results, key=lambda e: e.accuracy)
    least = max(results, key=lambda e: e.accuracy)
    print(
        f"\nmost sensitive layer:  {most.layer_name} (accuracy {most.accuracy:.2f}%)\n"
        f"least sensitive layer: {least.layer_name} (accuracy {least.accuracy:.2f}%)\n"
        "\nBecause sensitivities differ per layer, a uniform pulse length is wasteful:\n"
        "GBO (see examples/quickstart.py) assigns longer encodings only where they matter."
    )


if __name__ == "__main__":
    main()
