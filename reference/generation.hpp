// Pre-batching scenario generator, verbatim: fresh vectors per scenario and
// a structure graph rebuilt into a second, message-annotated graph.
// bench/perf_sweep checks ScenarioBatch against it bit-for-bit and times the
// two. Call it qualified: it has the signature of dsslice::generate_scenario.
#pragma once

#include <cstdint>

#include "dsslice/gen/generator_config.hpp"
#include "dsslice/gen/taskgraph_generator.hpp"

namespace dsslice::reference {

/// Draws the platform and application of one scenario from `seed`; same
/// contract as dsslice::generate_scenario.
Scenario generate_scenario(const GeneratorConfig& config, std::uint64_t seed);

}  // namespace dsslice::reference
