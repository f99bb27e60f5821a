"""The paper's full VGG9 workflow, driven through the experiment registry.

Reproduces every registered experiment — Fig. 1(b), Fig. 2, Table I,
Table II and the three ablations — on the ``fast`` profile (reduced-width
VGG9 on the synthetic CIFAR-like task) by iterating the registry index and
executing each experiment's scenario grid on the scenario runner.  Nothing
here names an individual experiment, so the example can never drift from the
experiment index.

Pre-training is cached under ``.repro_cache/`` and every completed scenario
lands in the content-addressed result store, so an interrupted run resumes
where it stopped and a repeated run is instant.  Pass ``--workers N`` to
shard independent scenarios across N processes (bit-identical results).

Run with:  python examples/vgg9_paper_workflow.py [profile] [--workers N]
           (profile defaults to "fast"; "smoke" finishes in seconds)
"""

import argparse

import repro
from repro import SimConfig
from repro.experiments import EXPERIMENTS, get_profile, run_experiment
from repro.experiments.registry import format_result
from repro.experiments.runner.store import default_store
from repro.utils.seed import seed_everything


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("profile", nargs="?", default="fast")
    parser.add_argument("--workers", "-w", type=int, default=0)
    args = parser.parse_args()

    profile = get_profile(args.profile)
    seed_everything(profile.seed)
    store = default_store()

    # The suite's simulation state as one immutable value: the engine pin
    # resolved through the one precedence rule, hashed into every scenario.
    base_sim = SimConfig.for_profile(profile)
    print(f"profile: {profile.name} (model={profile.model}, "
          f"width x{profile.width_multiplier}, image {profile.image_size}x{profile.image_size})")
    print(f"sim config {base_sim.hash}: engine={base_sim.engine!r}")
    print(f"noise sweep: ours sigma={list(profile.sigmas)}  ~  paper sigma={list(profile.paper_sigmas)}")
    print(f"result store: {store.root}\n")

    # Shared pre-trained model (cached on disk; scenario workers reload it).
    state = repro.pretrain(profile, sim=base_sim)
    bundle = state.bundle
    print(f"clean accuracy: {state.clean_accuracy:.2f}% (paper: 90.80% on CIFAR-10)\n")

    for identifier, spec in EXPERIMENTS.items():
        result, outcome = run_experiment(
            identifier,
            profile=profile,
            bundle=bundle if spec.needs_bundle else None,
            workers=args.workers,
            store=store,
        )
        print("=" * 72)
        print(f"{spec.paper_reference} — {spec.description}")
        print(f"[{outcome.executed} scenario(s) run, {outcome.cached} from cache]")
        print("=" * 72)
        print(format_result(spec, result))
        print()


if __name__ == "__main__":
    main()
