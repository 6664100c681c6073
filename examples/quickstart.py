#!/usr/bin/env python3
"""Quickstart: identify a mystery liquid with WiMi.

Sets up the paper's default deployment (router and 3-antenna receiver
2 m apart in a lab, beaker on the line of sight), trains the material
database on a handful of known liquids, then identifies held-out
measurements.

Run:  python examples/quickstart.py
"""

from repro import (
    DataCollector,
    WiMi,
    WiMiConfig,
    default_catalog,
    theory_reference_omegas,
)
from repro.experiments.datasets import standard_scene


def main() -> None:
    catalog = default_catalog()
    liquids = [catalog.get(n) for n in ("pure_water", "pepsi", "oil", "milk")]

    # One collector = one deployment (a fixed room + hardware).
    scene = standard_scene("lab")
    collector = DataCollector(scene, rng=42)

    print("Collecting training measurements (baseline + target pairs)...")
    training = []
    for liquid in liquids:
        training.extend(collector.collect_many(liquid, repetitions=8))

    wimi = WiMi(theory_reference_omegas(liquids), WiMiConfig())
    wimi.fit(training)
    print(f"  antenna pair: {wimi.calibration.pair}")
    print(f"  good subcarriers: {list(wimi.calibration.main_subcarriers)}")

    print("\nIdentifying fresh measurements:")
    correct = 0
    trials = 0
    for liquid in liquids:
        for _ in range(3):
            session = collector.collect(liquid)
            predicted = wimi.identify(session)
            outcome = "ok" if predicted == liquid.name else "MISS"
            print(f"  truth={liquid.name:<12} predicted={predicted:<12} {outcome}")
            correct += predicted == liquid.name
            trials += 1
    print(f"\naccuracy: {correct}/{trials}")


if __name__ == "__main__":
    main()
