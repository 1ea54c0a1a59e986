"""Half the labels, same accuracy: the penalty reads unlabeled rows too.

Cross-entropy only sees labeled examples, but posterior-stability penalties
need no labels at all. Withholding half the labels therefore halves the
supervised signal while leaving the smoothing signal intact.

Run with: python3 demos/half_labels.py
"""

import numpy as np

from pdrlab import (
    PerturbationConfig,
    RegularizerSpec,
    TrainConfig,
    evaluate,
    init_model_for,
    make_two_moons,
    train,
    withhold_labels,
)

vat = RegularizerSpec("vat", "KL", alpha=0.5,
                      perturbation=PerturbationConfig(radius=0.3, ascent_steps=1,
                                                      step_size=0.03))

rows = []
for s in (1, 2, 3):
    ds = make_two_moons(200, 0.25, seed=s)
    semi = withhold_labels(ds, 0.5, seed=s)
    test = make_two_moons(1000, 0.25, seed=1000 + s)

    def fit(data, spec):
        cfg = TrainConfig(epochs=200, batch_size=32, seed=s, learning_rate=0.05,
                          regularizer=spec)
        return evaluate(train(init_model_for(data, (64,), seed=s), data, cfg).model,
                        test).accuracy

    rows.append((fit(ds, RegularizerSpec(kind="none")),
                 fit(semi, RegularizerSpec(kind="none")),
                 fit(semi, vat)))

labels = ("STD, all 200 labels", "STD, 100 labels", "VAT_KL, 100 labels + 100 unlabeled")
for name, acc in zip(labels, np.mean(rows, axis=0)):
    print(f"{name:36s} test accuracy {100 * acc:6.2f}%")

n_lab = withhold_labels(make_two_moons(200, 0.25, seed=1), 0.5, seed=1).labeled_indices().size
print()
print(f"(the withheld split keeps {n_lab} labeled rows; the stability term is")
print(" what lets the third run recover the full-label accuracy)")
