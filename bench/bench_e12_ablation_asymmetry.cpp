// E12 — design ablation (§2's intuition): the asymmetric eps/8
// Collision increment is what defeats a majority-jamming adversary.
// Three arms under a (T, 1-eps) saturating adversary with eps < 1/2:
//   * LESK            — elects (success_rate ~ 1);
//   * symmetric-LESK  — the estimate diverges, election times out;
//   * Willard         — classic estimation, same failure mode.
// `final_estimate` shows the divergence directly.
#include "bench_common.hpp"

#include "baselines/lesk_symmetric.hpp"
#include "baselines/willard.hpp"
#include "sim/aggregate.hpp"

namespace jamelect::bench {
namespace {

constexpr std::uint64_t kN = 1024;
constexpr std::int64_t kMaxSlots = 1 << 17;

template <typename Protocol>
void run_arm(benchmark::State& state, double eps) {
  const std::size_t kTrials = trials(20);
  struct ArmTrial {
    bool elected = false;
    std::int64_t slots = 0;
    double estimate = 0;
  };
  double successes = 0, slots_sum = 0, final_u = 0;
  for (auto _ : state) {
    const auto outcomes = per_trial(0xE12, kTrials, [&](Rng rng) {
      Protocol proto;
      AdversarySpec spec = adversary("saturating", 64, eps);
      spec.n = kN;
      spec.protocol_eps = eps;
      auto adv = make_adversary(spec, rng.child(1));
      Rng sim = rng.child(2);
      const auto out = run_aggregate(proto, *adv, {kN, kMaxSlots}, sim);
      return ArmTrial{out.elected, out.slots, proto.estimate()};
    });
    for (const ArmTrial& t : outcomes) {
      successes += t.elected ? 1 : 0;
      slots_sum += static_cast<double>(t.slots);
      final_u += t.estimate;
    }
  }
  const auto td = static_cast<double>(kTrials);
  state.counters["eps_milli"] = eps * 1000;
  state.counters["success_rate"] = successes / td;
  state.counters["slots_mean"] = slots_sum / td;
  state.counters["final_estimate"] = final_u / td;
  state.counters["log2n"] = std::log2(static_cast<double>(kN));
}

// LESK needs an eps parameter; give the template arm a conservative
// fixed 0.25 (running with eps_hat <= eps keeps Theorem 2.6 valid).
class LeskArm final : public UniformProtocol {
 public:
  LeskArm() : inner_(0.25) {}
  [[nodiscard]] double transmit_probability() override {
    return inner_.transmit_probability();
  }
  void observe(ChannelState s) override { inner_.observe(s); }
  [[nodiscard]] bool elected() const override { return inner_.elected(); }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] UniformProtocolPtr clone() const override {
    return std::make_unique<LeskArm>(*this);
  }
  [[nodiscard]] double estimate() const override { return inner_.estimate(); }

 private:
  Lesk inner_;
};

void E12_Lesk(benchmark::State& state) {
  run_arm<LeskArm>(state, static_cast<double>(state.range(0)) / 1000.0);
}
void E12_SymmetricLesk(benchmark::State& state) {
  run_arm<SymmetricLesk>(state, static_cast<double>(state.range(0)) / 1000.0);
}
void E12_Willard(benchmark::State& state) {
  run_arm<Willard>(state, static_cast<double>(state.range(0)) / 1000.0);
}

BENCHMARK(E12_Lesk)->Arg(250)->Arg(400)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E12_SymmetricLesk)->Arg(250)->Arg(400)->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(E12_Willard)->Arg(250)->Arg(400)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace jamelect::bench

JAMELECT_BENCH_MAIN();
