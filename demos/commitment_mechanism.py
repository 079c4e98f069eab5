#!/usr/bin/env python3
"""The multi-period commitment mechanism for a single biased reviewer.

Solves the schedule, shows its committed actions evolving with the observed
state history, verifies the truthfulness constraints by simulation, and
locates the crossover with multi-reviewer game learning.
"""

import numpy as np

from cheaptalk_lab import (GameConfig, abandon_scheme, crossover_threshold,
                           equal_variance_normal_loss, evolving_loss,
                           log_alpha_beta, normal_pair, solve_schedule,
                           symmetric_bias_loss, verify_ic)

game = GameConfig(1, 0.3, 0.5, normal_pair(-1.0, 1.0))

print("== solving the two-period schedule ==")
schedule = solve_schedule(game, horizon=2)
print(f"  multipliers: low {schedule.lambda_low:.6f}, high {schedule.lambda_high:.6f}")
log_alpha, log_beta = log_alpha_beta(game.pair)
print(f"  log separation integrals: log alpha {log_alpha:.4f}, log beta {log_beta:.4f}")
a_low, a_high = schedule.actions([])
print(f"  first-period committed pair: low-message {a_low:.4f}, "
      f"high-message {a_high:.4f}  (means are -1 and +1)")

print()
print("== actions respond to the history ==")
# a schedule rates the periods it covers: after histories of fewer than T states
rng = np.random.default_rng(1)
history = game.pair.high.sample(rng, schedule.horizon - 1).tolist()
for cut in range(len(history) + 1):
    a_low, a_high = schedule.actions(history[:cut])
    shown = [round(x, 3) for x in history[:cut]]
    print(f"  after {shown}: low {a_low:.4f}, high {a_high:.4f}")
print("favorable observations pull the low-message action up: the platform")
print("pre-commits to rewarding a reviewer whose unfavorable report the data")
print("later contradicts, which is what keeps both biases honest.")

print()
print("== truthfulness residuals by simulation ==")
residuals = verify_ic(schedule, mc_episodes=100_000, seed=11)
for name in ("positive_low", "positive_high", "negative_low", "negative_high"):
    r = getattr(residuals, name)
    print(f"  {name:>13}: {r.value:+.5f} +- {r.stderr:.5f}")
print("all four sit at zero: misreporting never pays, in either direction.")

print()
print("== loss falls with the horizon ==")
print(f"  abandoning loss: {abandon_scheme(game)[1]:.6f}")
for horizon in (2, 3, 4, 6, 8, 12):
    general = evolving_loss(game, horizon)
    closed = equal_variance_normal_loss(0.3, 2.0, 1.0, horizon)
    print(f"  T={horizon:>2}: {general:.9f}  (normal closed form {closed:.9f})")

print()
print("== when does crowd learning overtake the mechanism? ==")
for horizon in (2, 3, 4):
    threshold = crossover_threshold(game, horizon)
    print(f"  T={horizon}: mechanism wins while N <= {threshold:.3f}")
print("direct check at T=2:")
for n in (3, 4, 5):
    bayes = symmetric_bias_loss(n, 0.3, 2.0)
    commit = evolving_loss(game, 2)
    side = "mechanism" if commit < bayes else "crowd"
    print(f"  N={n}: crowd {bayes:.6f} vs mechanism {commit:.6f} -> {side}")
