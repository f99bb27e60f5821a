"""Latency/energy cost of pulse schedules + the heuristic selection baseline.

The paper's GBO objective trades classification accuracy against the latency
of the pulse encoding.  This example makes that trade-off tangible:

1. pre-train a small crossbar MLP;
2. build three schedules at a comparable pulse budget —
   the uniform 8-pulse baseline, a sensitivity-guided *heuristic* allocation
   (the "manual selection" alternative the paper argues against), and a
   GBO-learned schedule;
3. compare their noisy accuracy *and* their estimated crossbar latency and
   energy using the first-order cost model.

Run with:  python examples/cost_and_heuristic.py
"""

from repro.sim import SimConfig, apply_config
from repro.core import (
    GBOConfig,
    GBOTrainer,
    PulseScalingSpace,
    PulseSchedule,
    sensitivity_guided_schedule,
)
from repro.crossbar import CostModelConfig, CrossbarCostModel
from repro.data import DataLoader, SyntheticImageConfig, make_synthetic_cifar
from repro.models import CrossbarMLP
from repro.tensor.random import RandomState
from repro.training import PretrainConfig, evaluate_accuracy, noisy_accuracy, pretrain_model
from repro.utils.seed import seed_everything


def main() -> None:
    seed_everything(5)

    config = SyntheticImageConfig(image_size=8, noise_level=0.08)
    train_set, test_set = make_synthetic_cifar(num_train=512, num_test=256, config=config, seed=11)
    train_loader = DataLoader(train_set, batch_size=32, shuffle=True, rng=RandomState(12))
    test_loader = DataLoader(test_set, batch_size=64)

    model = CrossbarMLP(3 * 8 * 8, hidden_sizes=(64, 64, 64), num_classes=10, rng=RandomState(13))
    print("pre-training...")
    pretrain_model(model, train_loader, config=PretrainConfig(epochs=10, learning_rate=1e-2))
    print(f"clean accuracy: {evaluate_accuracy(model, test_loader):.2f}%\n")

    sigma = 7.0
    budget = 12.0
    layers = model.num_encoded_layers()
    space = PulseScalingSpace()

    # Candidate schedules -------------------------------------------------
    schedules = {"baseline-8": PulseSchedule.uniform(layers, 8)}

    heuristic = sensitivity_guided_schedule(
        model, test_loader, sigma=sigma, budget_average_pulses=budget, space=space
    )
    schedules["heuristic"] = heuristic.schedule

    apply_config(model, SimConfig(noise_sigma=sigma))
    gbo = GBOTrainer(
        model, GBOConfig(space=space, gamma=5e-4, learning_rate=5e-2, epochs=4)
    ).train(train_loader)
    model.requires_grad_(True)
    schedules["GBO"] = gbo.schedule

    # Accuracy and hardware cost ------------------------------------------
    cost_model = CrossbarCostModel(CostModelConfig())
    print(f"noisy accuracy and estimated crossbar cost (sigma={sigma}):")
    print(f"{'schedule':<12} {'pulses':<22} {'avg':>5} {'acc %':>7} {'latency (ns)':>13} {'energy (nJ)':>12}")
    for name, schedule in schedules.items():
        noisy = SimConfig(mode="noisy", noise_sigma=sigma, pulses=schedule)
        accuracy = noisy_accuracy(model, test_loader, noisy, num_repeats=3)
        report = cost_model.schedule_cost(model, schedule)
        print(
            f"{name:<12} {str(schedule.as_list()):<22} {schedule.average_pulses:>5.1f} "
            f"{accuracy:>7.2f} {report.total_latency_ns:>13.1f} {report.total_energy_pj / 1000:>12.2f}"
        )

    print("\nper-layer breakdown of the GBO schedule:")
    print(cost_model.schedule_cost(model, schedules["GBO"]).format_table())


if __name__ == "__main__":
    main()
