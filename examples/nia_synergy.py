"""Synergy of GBO with Noise-Injection Adaptation (paper Table II) in miniature.

Compares, on a small crossbar MLP under severe analog noise:

* the pre-trained baseline (8-pulse encoding);
* NIA — weights fine-tuned with injected crossbar noise;
* GBO — learned per-layer pulse schedule on frozen pre-trained weights;
* NIA + GBO — the schedule learned on top of the NIA-adapted weights.

Run with:  python examples/nia_synergy.py
"""

from repro.core import GBOConfig, GBOTrainer, NIAConfig, NIATrainer, PulseScalingSpace, PulseSchedule
from repro.data import DataLoader, SyntheticImageConfig, make_synthetic_cifar
from repro.sim import SimConfig, apply_config
from repro.models import CrossbarMLP
from repro.tensor.random import RandomState
from repro.training import PretrainConfig, evaluate_accuracy, noisy_accuracy, pretrain_model
from repro.utils.seed import seed_everything


def run_gbo(model, loader, sigma: float) -> "PulseSchedule":
    """Train the per-layer encoding logits and return the selected schedule."""
    apply_config(model, SimConfig(noise_sigma=sigma))
    trainer = GBOTrainer(
        model, GBOConfig(space=PulseScalingSpace(), gamma=2e-4, learning_rate=5e-2, epochs=5)
    )
    schedule = trainer.train(loader).schedule
    model.requires_grad_(True)
    return schedule


def main() -> None:
    seed_everything(2)

    config = SyntheticImageConfig(image_size=8, noise_level=0.08)
    train_set, test_set = make_synthetic_cifar(num_train=512, num_test=256, config=config, seed=7)
    train_loader = DataLoader(train_set, batch_size=32, shuffle=True, rng=RandomState(8))
    test_loader = DataLoader(test_set, batch_size=64)

    model = CrossbarMLP(3 * 8 * 8, hidden_sizes=(64, 64, 64), num_classes=10, rng=RandomState(9))
    print("pre-training...")
    pretrain_model(model, train_loader, config=PretrainConfig(epochs=10, learning_rate=1e-2))
    clean = evaluate_accuracy(model, test_loader)
    pretrained_state = model.state_dict()

    sigma = 8.0
    layers = model.num_encoded_layers()
    baseline_schedule = PulseSchedule.uniform(layers, 8)
    rows = []

    def accuracy(schedule):
        noisy = SimConfig(mode="noisy", noise_sigma=sigma, pulses=schedule)
        return noisy_accuracy(model, test_loader, noisy, num_repeats=3)

    # Baseline: pre-trained weights, 8 pulses.
    rows.append(
        ("Baseline", 8.0, accuracy(baseline_schedule))
    )

    # GBO on the pre-trained weights.
    gbo_schedule = run_gbo(model, train_loader, sigma)
    rows.append(
        ("GBO", gbo_schedule.average_pulses, accuracy(gbo_schedule))
    )

    # NIA: fine-tune the weights under injected noise.
    model.load_state_dict(pretrained_state, strict=False)
    print("NIA fine-tuning under injected crossbar noise...")
    NIATrainer(model, NIAConfig(sigma=sigma, epochs=8, learning_rate=2e-3, pulses=8)).train(train_loader)
    nia_state = model.state_dict()
    rows.append(
        ("NIA", 8.0, accuracy(baseline_schedule))
    )

    # NIA + GBO: learn the schedule on top of the adapted weights.
    nia_gbo_schedule = run_gbo(model, train_loader, sigma)
    rows.append(
        ("NIA+GBO", nia_gbo_schedule.average_pulses, accuracy(nia_gbo_schedule))
    )
    model.load_state_dict(nia_state, strict=False)

    print(f"\nclean accuracy: {clean:.2f}%   |   crossbar noise sigma = {sigma}")
    print(f"{'method':<10} {'avg pulses':>11} {'accuracy %':>11}")
    for method, pulses, acc in rows:
        print(f"{method:<10} {pulses:>11.2f} {acc:>11.2f}")
    print(
        "\nExpected shape (paper Table II): NIA recovers most of the noise-induced\n"
        "loss at fixed latency; GBO alone helps by spending a few extra pulses;\n"
        "combining the two gives the best accuracy."
    )


if __name__ == "__main__":
    main()
