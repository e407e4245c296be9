/**
 * @file
 * Aggregate math (geometric / arithmetic means) used by the experiment
 * harness. Simulator counters and histograms live in
 * obs/stat_registry.h.
 */

#ifndef FDIP_UTIL_STATS_H_
#define FDIP_UTIL_STATS_H_

#include <vector>

namespace fdip
{

/** Geometric mean of strictly positive values. Returns 0 on empty input. */
double geometricMean(const std::vector<double> &values);

/** Arithmetic mean. Returns 0 on empty input. */
double arithmeticMean(const std::vector<double> &values);

} // namespace fdip

#endif // FDIP_UTIL_STATS_H_
