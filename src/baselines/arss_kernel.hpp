// POD kernel twin of ArssStation (baselines/arss.hpp) for the batched
// station engine (sim/station_batch.hpp).
//
// Same contract as the uniform-protocol kernels: every field and every
// update expression mirrors the virtual class bit for bit, so a trial
// run through n ArssKernels produces the identical TrialOutcome to the
// SlotEngine over n ArssStations — the devirtualized loop just skips
// the vtable and the per-station unique_ptr chasing.
// tests/baseline_kernel_test.cpp locks the pair together.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "baselines/arss.hpp"
#include "channel/types.hpp"
#include "support/expects.hpp"

namespace jamelect::kernels {

/// Twin of ArssStation: multiplicative p-update with the threshold
/// escape hatch; elect on the first Single (when elect_on_single).
struct ArssKernel {
  using Params = ArssParams;

  double gamma;
  double p_max;
  bool elect_on_single;
  double p;
  std::int64_t threshold;   // T_v
  std::int64_t counter;     // c_v
  std::int64_t since_idle;  // rounds since this station last sensed Null
  bool done;
  bool leader;

  explicit ArssKernel(const Params& params)
      : gamma(params.gamma),
        p_max(params.p_max),
        elect_on_single(params.elect_on_single),
        p(params.initial_p),
        threshold(1),
        counter(1),
        since_idle(0),
        done(false),
        leader(false) {
    JAMELECT_EXPECTS(params.gamma > 0.0 && params.gamma < 1.0);
    JAMELECT_EXPECTS(params.p_max > 0.0 && params.p_max <= 1.0);
    JAMELECT_EXPECTS(params.initial_p > 0.0 &&
                     params.initial_p <= params.p_max);
  }

  /// Field-for-field equality: the station lanes keep one shared
  /// kernel while every station's state compares equal.
  friend bool operator==(const ArssKernel&, const ArssKernel&) = default;

  [[nodiscard]] double transmit_probability() const noexcept {
    return done ? 0.0 : p;
  }

  void feedback(bool transmitted, Observation obs) {
    if (done) return;
    JAMELECT_EXPECTS(obs != Observation::kNoSingle);

    if (obs == Observation::kSingle && elect_on_single) {
      done = true;
      leader = transmitted;
      return;
    }

    bool sensed_idle = false;
    if (!transmitted) {
      if (obs == Observation::kNull) {
        p = std::min((1.0 + gamma) * p, p_max);
        threshold = std::max<std::int64_t>(1, threshold - 1);
        sensed_idle = true;
      } else if (obs == Observation::kSingle) {
        p /= 1.0 + gamma;
        threshold = std::max<std::int64_t>(1, threshold - 1);
      }
      // Collision leaves p unchanged this round.
    }
    since_idle = sensed_idle ? 0 : since_idle + 1;

    ++counter;
    if (counter > threshold) {
      counter = 1;
      if (since_idle >= threshold) {
        p /= 1.0 + gamma;
        threshold += 2;
      }
    }
  }
};

static_assert(std::is_trivially_copyable_v<ArssKernel>);

}  // namespace jamelect::kernels
