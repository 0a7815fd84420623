"""End-to-end protocol simulation with real bit payloads.

Each episode samples a hidden request path, sends queries chosen by the
per-step scheme (rebuilt lazily from the belief over the pivot request), and
checks bit-exact decoding of the desired message from the concatenated
answer.  The empirical download cost matches the analytic value, a
chi-square audit finds no dependence between queries and the protected
request, and the naive baseline fails that audit spectacularly.

Run:  python demos/05_simulation.py
"""

from onoffpir import (MarkovModel, PrivacyPattern, bounds_over_horizon,
                      empirical_privacy_audit, simulate)

model = MarkovModel.two_state(0.2, 0.2)
pattern = PrivacyPattern.from_string("100000")

print("One traced episode (seed 7):")
traced = simulate(model, pattern, 1, seed=7, msg_bits=32)
steps = zip(pattern.flags, traced.xs[0].tolist(), traced.q_masks[0].tolist(),
            traced.oks[0].tolist())
for t, (f_on, x, mask, ok) in enumerate(steps):
    members = "{" + ",".join(str(i) for i in range(model.n) if mask >> i & 1) + "}"
    print(f"  t={t} privacy={'ON ' if f_on else 'off'} "
          f"request={x} query={members:6s} answer={mask.bit_count() * 32:3d} bits "
          f"decoded={'ok' if ok else 'FAIL'}")
print()

episodes = 30_000
result = simulate(model, pattern, episodes, seed=11)
analytic = bounds_over_horizon(model, pattern, len(pattern) - 1)
print(f"{episodes} seeded episodes, decode failures: {result.decode_failures}")
print("  t  empirical E|Q|  analytic   P(|Q|=2)  0.6^gap")
for t in range(len(pattern)):
    print(f"  {t}     {result.mean_cardinality(t):.4f}      "
          f"{analytic[t].inner:.4f}     {result.p_cardinality(t, 2):.4f}"
          f"    {0.6 ** t if t else 1.0:.4f}")
print()

print("Chi-square privacy audit per step (pivot vs query, per history):")
for t in (1, 2, 3):
    audit = empirical_privacy_audit(result, t)
    print(f"  t={t}: statistic={audit.statistic:8.3f} dof={audit.dof:2d} "
          f"p={audit.p_value:.3f}")
print()

leaky = simulate(model, PrivacyPattern.from_string("10"), 5_000, seed=11,
                 policy="naive")
audit = empirical_privacy_audit(leaky, 1)
print("Same audit on the naive ask-directly baseline (5k episodes):")
print(f"  statistic={audit.statistic:.1f} dof={audit.dof} p={audit.p_value:.2e}")
print("The correlation betrays the protected request almost immediately.")
