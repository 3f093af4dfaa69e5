#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hyms_bench {

/// The src/ modules, one C++ namespace each (hyms::<module>). They are the
/// layers the traced run attributes CPU time to.
inline constexpr std::array<std::string_view, 13> kModules = {
    "util",  "telemetry", "sim",  "net",    "rtp",    "markup", "media",
    "buffer", "core",     "proto", "server", "client", "hermes"};

/// Statistical CPU profiler: ITIMER_PROF raises SIGPROF after each period of
/// process CPU time, on whichever thread is running, and the handler stores
/// that thread's call stack into a preallocated slot. Nothing is resolved
/// until profile() runs, after sampling has stopped. Only one Sampler may
/// exist at a time.
class Sampler {
 public:
  explicit Sampler(std::size_t capacity);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  /// Arm / disarm the timer. Samples accumulate across start/stop pairs.
  void start();
  void stop();

  struct Leaf {
    std::string symbol;
    int module = -1;
    std::size_t samples = 0;
  };
  struct Profile {
    std::size_t samples = 0;
    std::size_t dropped = 0;    // ticks that found every slot taken
    std::size_t truncated = 0;  // stacks deeper than a slot holds
    /// Self: the innermost frame of the program's code, per kModules index.
    std::array<std::size_t, kModules.size()> self{};
    /// Inclusive: counted once per module anywhere on the stack.
    std::array<std::size_t, kModules.size()> incl{};
    std::size_t unattributed = 0;  // no frame of the program's code at all
    std::vector<Leaf> top_leaves;  // interrupted function, most samples first
  };
  [[nodiscard]] Profile profile(std::size_t top_n) const;
};

}  // namespace hyms_bench
