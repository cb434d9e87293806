/**
 * @file
 * Forwarding header: the JSON value type is sim::Json (sim/json.hpp).
 *
 * Fleet sources include sim/json.hpp directly. This header remains
 * only because the benchmark harness (questbench/questbench.cpp)
 * still includes it and spells the type fleet::Json; it goes away
 * once that harness includes sim/json.hpp itself.
 */

#ifndef QUEST_FLEET_JSON_HPP
#define QUEST_FLEET_JSON_HPP

#include "sim/json.hpp"

namespace quest::fleet {
using sim::Json;
} // namespace quest::fleet

#endif // QUEST_FLEET_JSON_HPP
