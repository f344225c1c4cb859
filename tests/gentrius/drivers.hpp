// The four drivers behind one signature, for tests that hold them to one
// behaviour: at N_t = 1 each makes the serial driver's run.
#pragma once

#include <cstddef>

#include "gentrius/serial.hpp"
#include "parallel/pool.hpp"
#include "vthread/virtual_pool.hpp"

namespace gentrius::driver_test {

struct Driver {
  const char* name;
  bool takes_threads;  ///< run_serial always has one worker
  core::Result (*run)(const core::Problem&, const core::Options&,
                      std::size_t n_threads);
};

inline constexpr Driver kDrivers[] = {
    {"run_serial", false,
     [](const core::Problem& p, const core::Options& o, std::size_t) {
       return core::run_serial(p, o);
     }},
    {"run_parallel", true, &parallel::run_parallel},
    {"run_static_split", true, &parallel::run_static_split},
    {"run_virtual", true,
     [](const core::Problem& p, const core::Options& o, std::size_t n) {
       return vthread::run_virtual(p, o, n);
     }},
};

}  // namespace gentrius::driver_test
